"""Isotropy and Witt decomposition: beta = beta_a + n * H.

Anisotropic dimensions are classified field by field; over Q the local
dimensions over Q_p (the iterated hyperbolic-splitting criteria) combine
with the real signature through the Hasse-Minkowski principle.  The
anisotropic part over Q is rebuilt from its prescribed invariants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .fields import (QQ, is_padic_square, is_prime, is_square,
                     odd_prime_support, squarefree_part)
from .forms import (GWClass, InvariantBundle, add_gw, canonical_nonsquare,
                    classifying_key, empty_form, get_discriminant,
                    get_invariants, get_signature, hasse_witt_invariant,
                    hasse_witt_primes, hilbert_symbol, is_isomorphic_form,
                    make_diagonal_form, make_hyperbolic_form)

__all__ = [
    "DecompositionReport",
    "anisotropic_dimension_qp",
    "anisotropic_dimension",
    "witt_index",
    "is_isotropic",
    "is_anisotropic",
    "anisotropic_part",
    "sum_decomposition",
]


@dataclass(frozen=True)
class DecompositionReport:
    anisotropic_part: GWClass
    witt_index: int
    display: str


def _qp_isotropic(rank: int, d: Fraction, eps: int, p: int) -> bool:
    """Local isotropy from (rank, discriminant, Hasse-Witt) over Q_p."""
    if rank >= 5:
        return True
    if rank == 4:
        return (not is_padic_square(d, p)) or eps == hilbert_symbol(-1, -1, p)
    if rank == 3:
        return eps == hilbert_symbol(-1, -d, p)
    if rank == 2:
        return is_padic_square(-d, p)
    return False


def anisotropic_dimension_qp(beta: GWClass, p: int) -> int:
    """Dimension of the anisotropic kernel of a rational form over Q_p.

    Splits off hyperbolic planes on the invariant level: each split
    negates the discriminant and multiplies the Hasse-Witt invariant by
    (d_new, -1)_p.
    """
    if beta.field != QQ:
        raise ValueError("anisotropic_dimension_qp requires a form over QQ")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rank = beta.rank
    if rank == 0:
        return 0
    d = Fraction(get_discriminant(beta))
    eps = hasse_witt_invariant(beta, p)
    while rank > 0 and _qp_isotropic(rank, d, eps, p):
        rank -= 2
        d = -d
        eps *= hilbert_symbol(d, -1, p)
    return rank


def _gf_anisotropic_dimension(beta: GWClass) -> int:
    field = beta.field
    if beta.rank % 2:
        return 1
    # Even rank: split iff the discriminant equals the square class of
    # (-1)^(rank/2); otherwise a rank-2 anisotropic kernel remains.
    disc = get_discriminant(beta)
    target = field.one() if beta.rank // 2 % 2 == 0 else field.coerce(-1)
    target_rep = field.one() if is_square(target, field) \
        else canonical_nonsquare(field)
    return 0 if disc == target_rep else 2


def anisotropic_dimension(beta: GWClass) -> int:
    kind = beta.field.kind
    if beta.rank == 0:
        return 0
    if kind == "CC":
        return beta.rank % 2
    if kind == "RR":
        return abs(get_signature(beta))
    if kind == "GF":
        return _gf_anisotropic_dimension(beta)
    dim = abs(get_signature(beta))
    for p in hasse_witt_primes(beta):
        dim = max(dim, anisotropic_dimension_qp(beta, p))
    return dim


def witt_index(beta: GWClass) -> int:
    return (beta.rank - anisotropic_dimension(beta)) // 2


def is_anisotropic(beta: GWClass) -> bool:
    return anisotropic_dimension(beta) == beta.rank


def is_isotropic(beta: GWClass) -> bool:
    return beta.rank > 0 and not is_anisotropic(beta)


# ---------------------------------------------------------------------------
# Anisotropic part.


def _search_unit(primes, sign, d_t, targets):
    """A rational a of the given sign with (a, -d_t)_p = targets[p] for all p.

    Returns None when no such a exists: by Hilbert reciprocity the
    symbols of any a multiply to 1 over all places, and when -d_t is a
    square every symbol is trivially 1.  Otherwise tries products of the
    listed primes first, then enlarges by one auxiliary prime.
    """
    base = sorted(set(primes) | {2})
    if d_t == -1:
        return Fraction(sign) if all(t == 1 for t in targets.values()) else None
    # (a, -d_t)_p is identically 1 when -d_t is a square in Q_p.
    if any(t == -1 and is_padic_square(Fraction(-d_t), p)
           for p, t in targets.items()):
        return None
    infinity = -1 if sign < 0 and d_t > 0 else 1
    product = infinity
    for t in targets.values():
        product *= t
    if product != 1:
        return None

    def candidates(extra=1):
        cands = []
        for mask in itertools.product((0, 1), repeat=len(base)):
            val = extra
            for p, m in zip(base, mask):
                if m:
                    val *= p
            cands.append(sign * val)
        return sorted(set(cands), key=abs)

    def ok(a, check_primes):
        return all(hilbert_symbol(a, -d_t, p) == targets.get(p, 1)
                   for p in check_primes)

    check = sorted(set(base) | set(targets))
    for a in candidates():
        if ok(a, check):
            return Fraction(a)
    aux = 3
    while True:
        if is_prime(aux) and aux not in check:
            for a in candidates(aux):
                if ok(a, check + [aux]):
                    return Fraction(a)
        aux += 2


def _entry_candidates(pool, signs, aux_count=25):
    """Squarefree candidates (by absolute value) built from the prime pool."""
    magnitudes = []
    for mask in itertools.product((0, 1), repeat=len(pool)):
        val = 1
        for p, m in zip(pool, mask):
            if m:
                val *= p
        magnitudes.append(val)
    magnitudes = sorted(set(magnitudes))
    auxes = [1]
    q = 3
    while len(auxes) <= aux_count:
        if is_prime(q) and q not in pool:
            auxes.append(q)
        q += 2
    out = sorted({v * x for v in magnitudes for x in auxes})
    return [s * v for v in out for s in signs]


def _realize_recursive(rank: int, sig: int, disc: int, eps: dict):
    """Diagonal squarefree entries for the invariants, or None if stuck.

    Peels off one diagonal entry at a time; the rank-2 base case is the
    pair <a, a*disc> with Hasse-Witt symbol (a, -disc)_p.
    """
    if rank == 1:
        if (1 if disc > 0 else -1) != sig or any(t == -1 for t in eps.values()):
            return None
        return [disc]
    pool = sorted({2} | set(eps) | set(odd_prime_support(disc)))
    if rank == 2:
        if disc > 0:
            signs = {2: [1], -2: [-1]}.get(sig)
        else:
            signs = [1, -1] if sig == 0 else None
        if signs is None:
            return None
        for sign in signs:
            a = _search_unit(pool, sign, disc, eps)
            if a is not None:
                return sorted((squarefree_part(a), squarefree_part(a * disc)))
        return None
    signs = [s for s in (1, -1) if abs(sig - s) <= rank - 1]
    for a1 in _entry_candidates(pool, signs):
        d_rest = squarefree_part(Fraction(disc) * a1)
        eps_rest = {p: eps.get(p, 1) * hilbert_symbol(a1, d_rest, p)
                    for p in sorted(set(pool) | set(odd_prime_support(a1)))}
        rest = _realize_recursive(rank - 1, sig - (1 if a1 > 0 else -1),
                                  d_rest, eps_rest)
        if rest is not None:
            return sorted([a1] + rest)
    return None


def _realize_rational(rank: int, sig: int, disc: int, eps: dict) -> list[int]:
    """Diagonal squarefree entries realizing the given rational invariants."""
    if rank == 0:
        return []
    entries = _realize_recursive(rank, sig, disc, eps)
    if entries is None:
        raise AssertionError("could not realize the prescribed invariants")
    realized = get_invariants(make_diagonal_form(QQ, entries))
    if classifying_key(realized) != \
            classifying_key(InvariantBundle(rank, sig, disc, eps)):
        raise AssertionError("realized form has the wrong invariants")
    return entries


def anisotropic_part(beta: GWClass) -> GWClass:
    """An anisotropic form beta_a with beta = beta_a + witt_index * H.

    Diagonal with square-class-normalized entries, sorted ascending.
    """
    field = beta.field
    dim = anisotropic_dimension(beta)
    if dim == 0:
        return empty_form(field)
    kind = field.kind
    if kind == "CC":
        return make_diagonal_form(field, [1] * dim)
    if kind == "RR":
        s = 1 if get_signature(beta) > 0 else -1
        return make_diagonal_form(field, [s] * dim)
    n = (beta.rank - dim) // 2
    if kind == "GF":
        d_a = get_discriminant(beta)
        if n % 2:
            d_a = d_a * field.coerce(-1)
        rep = field.one() if is_square(d_a, field) else canonical_nonsquare(field)
        if dim == 1:
            return make_diagonal_form(field, [rep])
        return make_diagonal_form(field, [field.one(), rep])
    # QQ: push the invariants of beta through the n hyperbolic splits.  The
    # odd primes of d_a divide beta's diagonal, so the record covers them.
    inv = get_invariants(beta)
    d_a = inv.discriminant * (-1) ** n
    eps = {}
    for p, t in inv.hasse_witt.items():
        if n * (n - 1) // 2 % 2:
            t *= hilbert_symbol(-1, -1, p)
        t *= hilbert_symbol(d_a, (-1) ** n, p)
        eps[p] = t
    entries = _realize_rational(dim, inv.signature, d_a, eps)
    result = make_diagonal_form(QQ, entries)
    rebuilt = result if n == 0 else add_gw(result, make_hyperbolic_form(QQ, 2 * n))
    if not is_isomorphic_form(rebuilt, beta):
        raise AssertionError("anisotropic part failed its witness check")
    return result


def sum_decomposition(beta: GWClass) -> DecompositionReport:
    """Witt decomposition with the display string "nH + <a_1> + ..."."""
    part = anisotropic_part(beta)
    n = (beta.rank - part.rank) // 2
    pieces = []
    if n > 0:
        pieces.append(f"{n}H")
    for i in range(part.rank):
        entry = part.gram[i][i]
        if isinstance(entry, Fraction) and entry.denominator == 1:
            entry = entry.numerator
        pieces.append(f"<{entry}>")
    display = " + ".join(pieces) if pieces else "0"
    return DecompositionReport(part, n, display)
