"""Isotropy and Witt decomposition: beta = beta_a + n * H.

Over Q and Q_p one loop, _split, answers every isotropy question: it splits
H off the record while the form is isotropic over R and over Q_p at each of
the record's primes (Hasse-Minkowski).  C, R and GF(q) go by rank, signature
and discriminant.

The anisotropic part over Q is built from its class alone (rank, signature,
discriminant d, the primes where Hasse-Witt is -1), so isomorphic inputs
get one representative (Serre, A Course in Arithmetic, III Thm 4 and IV
Prop 7).  Above rank 3 it peels off <sign>; at rank 3 an entry built from
the primes where the ternary form is anisotropic; and the plane <a, a*d>
solves an F_2 linear system, with at most one auxiliary prime.  The
ascending scan for that prime is the only search: it stops at
_REALIZATION_CAP with a ValueError, which the CLI reports with exit 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .fields import QQ, _check_prime, _padic_square, is_prime
from .forms import (GWClass, InvariantBundle, _gf_class_rep, _hilbert,
                    _record_symbols, empty_form, is_isomorphic_form,
                    make_diagonal_form)

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


def _qp_isotropic(rank: int, d: int, eps: int, p: int) -> bool:
    """Local isotropy from (rank, squarefree discriminant, Hasse-Witt) over
    Q_p, for a prime p."""
    if rank >= 5:
        return True
    if rank == 4:
        return (not _padic_square(d, p)) or eps == _hilbert(-1, -1, p)
    if rank == 3:
        return eps == _hilbert(-1, -d, p)
    if rank == 2:
        return _padic_square(-d, p)
    return False


def _split_plane(d: int, eps: dict) -> tuple[int, dict]:
    """Split off H: the discriminant negates, each eps_p gains (-d, -1)_p."""
    return -d, {p: t * _hilbert(-d, -1, p) for p, t in eps.items()}


def _split(rank: int, sig: int, d: int, eps: dict) -> tuple[int, int, dict]:
    """Split off H while the form is isotropic over R and over Q_p at each
    key of eps; return the (rank, d, eps) that is left.

    Each split lowers every local Witt index by one, so the loop stops at
    the largest local anisotropic dimension.  Over Q the keys hold 2 and the
    primes of d; at other odd p rank >= 3 is isotropic, and at rank 2 any
    -d != 1 shows at 2, at a prime of d or at R.
    """
    while rank > abs(sig) and all(_qp_isotropic(rank, d, t, p)
                                  for p, t in eps.items()):
        rank -= 2
        d, eps = _split_plane(d, eps)
    return rank, d, eps


def anisotropic_dimension_qp(beta: GWClass, p: int) -> int:
    """Dimension of the anisotropic kernel of a rational form over Q_p:
    _split on the class's record at p alone, leaving R out."""
    if beta.field != QQ:
        raise ValueError("anisotropic_dimension_qp requires a form over QQ")
    _check_prime(p)
    inv = beta._invariants
    return _split(beta.rank, 0, inv.discriminant,
                  {p: inv.hasse_witt.get(p, 1)})[0]


def _kernel(beta: GWClass) -> tuple:
    """The anisotropic kernel's (dim, d_a, eps_a); eps_a is None off QQ, and
    d_a too over CC and RR, where dim and the signature fix the kernel."""
    field, rank, inv = beta.field, beta.rank, beta._invariants
    if field.kind == "QQ":
        return _split(rank, inv.signature, inv.discriminant, inv.hasse_witt)
    if field.kind == "CC":
        return rank % 2, None, None
    if field.kind == "RR":
        return abs(inv.signature), None, None
    # GF(q): rank >= 3 is isotropic, and even rank splits completely iff the
    # discriminant is the class of (-1)^(rank/2); n planes scale d by (-1)^n.
    minus = field.coerce(-1)
    dim = rank % 2 or (0 if inv.discriminant == _gf_class_rep(
        minus ** (rank // 2), field) else 2)
    n = (rank - dim) // 2
    return dim, _gf_class_rep(inv.discriminant * minus ** n, field), None


def anisotropic_dimension(beta: GWClass) -> int:
    return _kernel(beta)[0]


def witt_index(beta: GWClass) -> int:
    return (beta.rank - anisotropic_dimension(beta)) // 2


def is_anisotropic(beta: GWClass) -> bool:
    return anisotropic_dimension(beta) == beta.rank


def is_isotropic(beta: GWClass) -> bool:
    return beta.rank > 0 and not is_anisotropic(beta)


# ---------------------------------------------------------------------------
# Anisotropic part.

# The one search of the realization, for a plane's auxiliary prime, tries
# the primes below this cap; past it the realization raises ValueError.
_REALIZATION_CAP = 10_000


def _solve_f2(rows):
    """An x with parity(r & x) == b for every (r, b) in rows, or None.

    Gauss-Jordan elimination pivoting on each row's lowest set bit (its
    leftmost column); the free variables are 0.
    """
    reduced = []
    for r, b in rows:
        for pr, pb in reduced:
            if r & pr & -pr:
                r, b = r ^ pr, b ^ pb
        if not r:
            if b:
                return None
            continue
        reduced = [(pr ^ r, pb ^ b) if pr & r & -r else (pr, pb)
                   for pr, pb in reduced] + [(r, b)]
    return sum(r & -r for r, b in reduced if b)


def _plane(sig: int, disc: int, eps: dict, pool: list[int]) -> list[int]:
    """<a, a*disc> with Hasse-Witt (a, -disc)_p = eps_p on the pool.

    a is sign(sig) times a product of the columns -1 (when sig is 0), the
    pool primes and t: the symbols are bilinear, so this is an F_2 linear
    system.  t is 1 (a zero column) and then each prime outside the pool
    with (t, -disc)_t = 1, ascending, until one solves the system; one does
    by Dirichlet's theorem (Serre, III Thm 4).
    """
    sign = -1 if sig < 0 else 1
    cols = ([-1] if sig == 0 else []) + pool
    base = [(sum(1 << j for j, g in enumerate(cols)
                 if _hilbert(g, -disc, p) == -1),
             eps[p] * _hilbert(sign, -disc, p) == -1) for p in pool]
    for t in range(1, _REALIZATION_CAP):
        if t > 1 and (t in pool or not is_prime(t)
                      or _hilbert(t, -disc, t) == -1):
            continue
        x = _solve_f2([(r | (_hilbert(t, -disc, p) == -1) << len(cols),
                        b) for (r, b), p in zip(base, pool)])
        if x is not None:
            a = sign * prod(g for j, g in enumerate(cols + [t]) if x >> j & 1)
            return [a, a * disc // gcd(a, disc) ** 2]
    raise ValueError(f"no auxiliary prime below the realization cap "
                     f"{_REALIZATION_CAP}")


def _ternary_entry(sign: int, disc: int, eps: dict, pool: list[int]) -> int:
    """An entry sign * m or sign * 2m, with pool primes only, leaving a plane.

    The plane exists unless the entry lies in the class of -disc at a prime
    where the ternary form is anisotropic, that is where eps_p differs from
    (-1, -disc)_p (ch. IV Prop 7).  m, the product of those primes that are
    odd and prime to disc, differs from -disc by valuation at each odd one;
    at 2 it can clash only when disc is odd, and then 2m differs there.
    """
    anisotropic_at = [p for p in pool if not _qp_isotropic(3, disc, eps[p], p)]
    m = sign * prod(p for p in anisotropic_at if p > 2 and disc % p)
    clash = 2 in anisotropic_at and _padic_square(-disc * m, 2)
    return 2 * m if clash else m


def _realize_rational(rank: int, sig: int, disc: int, eps: dict) -> list:
    """Squarefree entries, ascending, of a diagonal form realizing the
    given rational invariants.

    Reads only the class; 2 and each prime of disc must be keys of eps.
    Prop 7 puts no local condition on rank >= 3, so above rank 3 any <sign>
    peels off.  The pool is the record's primes, ascending.
    """
    eps = _record_symbols(disc, eps)
    pool = sorted(eps)
    entries = []
    for n in range(rank, 2, -1):
        sign = -1 if sig < 0 else 1
        a = sign if n > 3 else _ternary_entry(sign, disc, eps, pool)
        entries.append(a)
        sig, disc = sig - (1 if a > 0 else -1), disc * a // gcd(disc, a) ** 2
        eps = _record_symbols(
            disc, {p: eps[p] * _hilbert(a, disc, p) for p in pool})
        pool = sorted(eps)
    entries += _plane(sig, disc, eps, pool) if rank > 1 else [disc]
    return sorted(entries)


def anisotropic_part(beta: GWClass) -> GWClass:
    """An anisotropic form beta_a with beta = beta_a + witt_index * H.

    Diagonal with square-class-normalized entries, sorted ascending.
    """
    field, kind = beta.field, beta.field.kind
    dim, d_a, eps = _kernel(beta)
    if dim == 0:
        return empty_form(field)
    if kind in ("CC", "RR"):
        sign = -1 if kind == "RR" and beta._signature < 0 else 1
        return make_diagonal_form(field, [sign] * dim)
    if kind == "GF":
        return make_diagonal_form(field,
                                  [d_a] if dim == 1 else [field.one(), d_a])
    entries = _realize_rational(dim, beta._signature, d_a, eps)
    result = make_diagonal_form(QQ, entries)
    n = (beta.rank - dim) // 2
    # nH is built here: make_hyperbolic_form bounds the rank of made forms.
    rebuilt = make_diagonal_form(QQ, entries + [1, -1] * n) if n else result
    if not is_isomorphic_form(rebuilt, beta):
        raise AssertionError("anisotropic part failed its witness check")
    # The witness has beta's record, so the part's is that record with the
    # n planes split off: the kernel's, which no factorization need read.
    vars(result)["_invariants"] = InvariantBundle(
        dim, beta._signature, d_a, _record_symbols(d_a, eps))
    return result


def sum_decomposition(beta: GWClass) -> DecompositionReport:
    """Witt decomposition with the display string "nH + <a_1> + ..."."""
    part = anisotropic_part(beta)
    n = (beta.rank - part.rank) // 2
    pieces = []
    if n > 0:
        pieces.append(f"{n}H")
    for i in range(part.rank):
        pieces.append(f"<{part.gram[i][i]}>")
    display = " + ".join(pieces) if pieces else "0"
    return DecompositionReport(part, n, display)
