"""Grothendieck-Witt classes of symmetric bilinear forms.

A class is a nondegenerate symmetric Gram matrix over one of the supported
fields.  Entries over QQ/RR/CC are exact rationals; the RR/CC tags change
only which invariants classify.  Classification: rank over CC; rank and
signature over RR; rank and discriminant square class over GF(q); rank,
signature, discriminant and all Hasse-Witt invariants over QQ.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Optional

from . import fields
from .fields import (QQ, FFElement, FieldDesc, _check_prime, _class_integer,
                     _coefficient_vectors, _split_prime, fraction_sqrt,
                     is_square, squarefree_part)

__all__ = [
    "GWClass",
    "InvariantBundle",
    "make_gw_class",
    "add_gw",
    "multiply_gw",
    "diagonalize",
    "make_diagonal_form",
    "make_hyperbolic_form",
    "make_pfister_form",
    "get_rank",
    "get_signature",
    "get_discriminant",
    "get_invariants",
    "hilbert_symbol",
    "hasse_witt_invariant",
    "is_isomorphic_form",
    "base_change",
    "canonical_nonsquare",
]


@dataclass(frozen=True)
class GWClass:
    """A symmetric nondegenerate Gram matrix with its field tag.

    Built through :func:`make_gw_class`, which validates (the degree
    paths, whose entries are the field's already, skip only its coercion);
    rank-0 classes exist only as outputs of the Witt-decomposition
    machinery.  The pivots of one symmetric elimination, the diagonal and
    the invariants are computed once, on first use.  The diagonal factors
    each pivot for its squarefree entry; the invariants read one
    factorization of their own, whichever of the two ran first, so a class
    has one record.  A maker that already holds the determinant may hand
    it over (`_checked`), as the GF(q) residue path's Gauss-Jordan does;
    a GF(q) class's invariants read only that, so such a class runs no
    elimination until its pivots are asked for.  A maker that holds the
    whole elimination may hand that over, as the QQ residue path's sweep
    does for every class it builds and `make_diagonal_form` for every
    diagonal class: such a class runs none.
    """

    field: FieldDesc
    gram: tuple

    @property
    def rank(self) -> int:
        return len(self.gram)

    @functools.cached_property
    def _elimination(self) -> tuple:  # (pivots, determinant, lcm L)
        return _eliminate(self.gram, self.field)[:3]

    @functools.cached_property
    def _determinant(self):
        return self._elimination[1]

    @property
    def _pivots(self) -> tuple:
        return self._elimination[0]

    @functools.cached_property
    def _signature(self) -> int:
        return sum(1 if d > 0 else -1 for d in self._pivots)

    @functools.cached_property
    def _diagonal(self) -> tuple:
        if self.field.kind == "GF":
            return self._pivots
        return tuple(Fraction(squarefree_part(d)) for d in self._pivots)

    @functools.cached_property
    def _invariants(self) -> "InvariantBundle":
        return _square_class_invariants(self)

    def diagonal_entries(self) -> list:
        return list(self._diagonal)

    def __str__(self):
        if not self.gram:
            return f"<empty form over {self.field}>"
        rows = [[str(c) for c in row] for row in self.gram]
        width = max(len(s) for row in rows for s in row)
        return "\n".join("[ " + "  ".join(s.rjust(width) for s in row) + " ]"
                         for row in rows)


def make_gw_class(matrix, field: FieldDesc) -> GWClass:
    """Validated construction from a square symmetric matrix."""
    return _checked(field, [[field.coerce(c) for c in row] for row in matrix])


def _checked(field: FieldDesc, rows, det=None, elimination=None) -> GWClass:
    """`make_gw_class` for rows of the field's own elements, as the degree
    paths build them: checked, but not coerced again.  A caller that has
    proved the form nondegenerate may hand over its determinant ``det``, a
    field element, or its whole ``elimination``, what `_eliminate` would
    return as (pivots, det, L); then the class keeps it and nothing is
    eliminated."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty Gram matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("Gram matrix must be square")
    for i, row in enumerate(rows):
        if list(row[i + 1:]) != [r[i] for r in rows[i + 1:]]:
            raise ValueError("Gram matrix must be symmetric")
    beta = _raw(field, rows)
    if det is not None:
        vars(beta)["_determinant"] = det
    if elimination is not None:
        vars(beta)["_elimination"] = elimination
    beta._determinant  # eliminates unless handed over: "degenerate form"
    return beta


def _raw(field: FieldDesc, rows) -> GWClass:
    return GWClass(field, tuple(tuple(row) for row in rows))


def empty_form(field: FieldDesc) -> GWClass:
    return GWClass(field, ())


def add_gw(b1: GWClass, b2: GWClass) -> GWClass:
    """Direct sum: block-diagonal Gram matrix."""
    if b1.field != b2.field:
        raise ValueError("field mismatch")
    z = b1.field.zero()
    n1, n2 = b1.rank, b2.rank
    rows = []
    for i in range(n1):
        rows.append(list(b1.gram[i]) + [z] * n2)
    for i in range(n2):
        rows.append([z] * n1 + list(b2.gram[i]))
    return _raw(b1.field, rows)


def multiply_gw(b1: GWClass, b2: GWClass) -> GWClass:
    """Tensor product: Kronecker product of Gram matrices."""
    if b1.field != b2.field:
        raise ValueError("field mismatch")
    n1, n2 = b1.rank, b2.rank
    rows = []
    for i1 in range(n1):
        for i2 in range(n2):
            rows.append([b1.gram[i1][j1] * b2.gram[i2][j2]
                         for j1 in range(n1) for j2 in range(n2)])
    return _raw(b1.field, rows)


def _eliminate(gram, field: FieldDesc, track: bool = False):
    """Symmetric elimination: (pivots, det, L, columns of P or None).

    P^T * gram * P is the diagonal of the pivots; P is tracked, by columns,
    only with ``track``.  det is the determinant of gram: the product of the
    pivots times g^2 for each hyperbolic plane's entry g.  L is the lcm of
    the gram's denominators (1 over GF).

    The trailing block is N / D, a matrix N of ints over one int D, over
    every field.  Over QQ, RR and CC N enters as the integer matrix
    N = L * gram over D = L; over GF(q) as the ints its elements hold
    (`FFElement.value`; the residues over GF(p), and for entries in GF(p))
    over D = 1.  Only the upper triangle is kept up to date; a swap or a
    plane first mirrors it.

    Step i pivots on p = N_ii, and the pivot is p / D.  A step whose row is
    nonzero past the diagonal sets N_jk <- p * N_jk - N_ij * N_ik and
    D <- p * D (fraction-free, Bareiss 1968); one whose row is zero there
    leaves N and D alone, so a diagonal Gram pays no rescaling.  A zero
    p is swapped with the first nonzero diagonal entry after it; failing
    that, the first nonzero g = N_ij spans a hyperbolic plane, re-based by
    e_i <- alpha*e_i + e_j, e_j <- alpha*e_i - e_j with alpha = D / 2g.  Its
    rows become D * row_i +- 2g * row_j over 2g * D, the block moves to
    that denominator, and the plane itself is <D, -D> / D = <1, -1>.

    Three things depend on the domain: how the entries enter; the division
    that makes the pivots, det (a numerator over a denominator until the
    end) and the columns of P (Fraction over the integers, and over GF the
    field element of the reduced quotient); and what follows each
    rescaling.  Over the integers N and D are divided by gcd(D, content(N)).
    That keeps D the lcm of the block's denominators, so the entries stay
    the size of the true Schur complement's.  Over GF N and D go through
    the field's reducer instead, which keeps every entry the size of one
    element, so an entry is zero exactly when its element is; and det and
    den, products over every step, are reduced as they grow, each factor
    first, so that no product of products is multiplied again.
    """
    n = len(gram)
    if field.kind != "GF":
        lcd = lcm(*(c.denominator for row in gram for c in row))
        div, divide_content = Fraction, _divide_content
        reduce = operator.pos  # the integers need no reduction
        N = [[c.numerator * (lcd // c.denominator) for c in row]
             for row in gram]
        D, det, den = lcd, 1, 1
    else:
        lcd, reduce, invert = 1, field.reduce, field.invert
        div = lambda a, b: FFElement(field, reduce(a * invert(b)))
        divide_content = functools.partial(_reduce_rows, reduce)
        N = [[c.value for c in row] for row in gram]
        D = det = den = 1
    cols = None
    if track:  # P by columns: every basis change is a column operation
        one, zero = field.one(), field.zero()
        cols = [[one if r == c else zero for r in range(n)] for c in range(n)]
    pivots = []
    for i in range(n):
        if not N[i][i]:
            for r in range(i + 1, n):
                N[r][i:r] = [N[c][r] for c in range(i, r)]
            j = next((j for j in range(i + 1, n) if N[j][j]), None)
            if j is not None:
                N[i], N[j] = N[j], N[i]
                for row in N[i:]:
                    row[i], row[j] = row[j], row[i]
                if track:
                    cols[i], cols[j] = cols[j], cols[i]
            else:
                j = next((j for j in range(i + 1, n) if N[i][j]), None)
                if j is None:
                    raise ValueError("degenerate form")
                g = N[i][j]
                det = reduce(det * reduce(g * g))
                den = reduce(den * reduce(D * D))
                u, v = D, 2 * g
                ri = [u * x + v * y for x, y in zip(N[i][i:], N[j][i:])]
                rj = [u * x - v * y for x, y in zip(N[i][i:], N[j][i:])]
                k = j - i
                ri[0] = ri[k] = rj[0] = rj[k] = N[i][i]  # zero
                for r in range(i + 1, n):
                    N[r][r:] = [v * x for x in N[r][r:]]
                D *= v
                ri[0], rj[k] = D, -D
                N[i][i:], N[j][i:] = ri, rj
                for c in range(i + 1, j):
                    N[c][j] = rj[c - i]
                D = divide_content(N, i, D)
                if track:
                    alpha = div(u, v)
                    ci, cj = cols[i], cols[j]
                    cols[i] = [alpha * a + b for a, b in zip(ci, cj)]
                    cols[j] = [alpha * a - b for a, b in zip(ci, cj)]
        row = N[i]
        p = row[i]
        det = reduce(det * p)
        den = reduce(den * D)
        pivots.append(div(p, D))
        support = [j for j in range(i + 1, n) if row[j]]
        if support:
            for j in range(i + 1, n):
                a, tail = row[j], N[j][j:]
                N[j][j:] = ([p * x - a * y for x, y in zip(tail, row[j:])]
                            if a else [p * x for x in tail])
            D = divide_content(N, i + 1, p * D)
        if track:
            ci = cols[i]
            for j in support:
                f = div(row[j], p)
                cols[j] = [a - f * b for a, b in zip(cols[j], ci)]
    return tuple(pivots), div(det, den), lcd, cols


def _reduce_rows(reduce, G, start: int, D: int) -> int:
    """Put the upper triangle's rows from ``start`` and D through the field's
    reducer; return the new D."""
    for r in range(start, len(G)):
        G[r][r:] = map(reduce, G[r][r:])
    return reduce(D)


def _divide_content(G, start: int, D: int) -> int:
    """Divide the upper triangle's rows from ``start`` and D by their common
    gcd; return the new D."""
    g = D
    for r in range(start, len(G)):
        if g == 1:
            return D
        g = gcd(g, *G[r][r:])
    if g != 1:
        for r in range(start, len(G)):
            G[r][r:] = [x // g for x in G[r][r:]]
    return D // g


def diagonalize(beta: GWClass):
    """Congruence diagonalization: returns (D, P) with P^T * gram * P = D.

    Over QQ/RR/CC each diagonal entry is further reduced to its
    squarefree-integer square-class representative (the scaling is folded
    into P, so the congruence witness stays exact).
    """
    F = beta.field
    pivots, det, lcd, cols = _eliminate(beta.gram, F, track=True)
    # Tracking adds only column operations: this is beta's elimination.
    vars(beta).setdefault("_elimination", (pivots, det, lcd))
    diag = beta._diagonal
    if F.kind != "GF":
        for i, (d, s) in enumerate(zip(pivots, diag)):
            t = fraction_sqrt(d / s)
            if t != 1:
                cols[i] = [a / t for a in cols[i]]
    # A rank-0 class (a hyperbolic form's anisotropic part) is its diagonal.
    return (make_diagonal_form(F, diag) if diag else beta), tuple(zip(*cols))


def make_diagonal_form(field: FieldDesc, entries) -> GWClass:
    """The diagonal class <a_1, ..., a_n>, handed the elimination that
    `_eliminate` would return for it: the entries are the pivots, their
    product the determinant, and L the lcm of their denominators (1 over
    GF), so the class runs none."""
    entries = [field.coerce(e) for e in entries]
    if not entries:
        raise ValueError("a diagonal form needs at least one entry")
    if not all(entries):
        raise ValueError("diagonal entries must be nonzero")
    z = field.zero()
    n = len(entries)
    beta = _raw(field, [[entries[i] if i == j else z for j in range(n)]
                        for i in range(n)])
    if field.kind == "GF":
        lcd, det = 1, prod(entries)
    else:
        dens = [e.denominator for e in entries]
        lcd = lcm(*dens)
        # one normalization, not one per Fraction product
        det = Fraction(prod(e.numerator for e in entries), prod(dens))
    vars(beta)["_elimination"] = (tuple(entries), det, lcd)
    return beta


# The largest rank `form make` builds.  The dense Gram matrix grows with the
# rank squared: on a 2-core Intel Xeon VM `a1deg form make --field QQ --json`
# took 0.1-0.4 s at rank 256, 1.6-1.8 s at ranks 512-1024, 9.3 s at 4000.
MAX_MADE_RANK = 256


def make_hyperbolic_form(field: FieldDesc, rank: int) -> GWClass:
    if rank <= 0 or rank % 2:
        raise ValueError("hyperbolic rank must be even and positive")
    if rank > MAX_MADE_RANK:
        raise ValueError(f"hyperbolic rank {rank} exceeds {MAX_MADE_RANK}")
    return make_diagonal_form(field, [1, -1] * (rank // 2))


def make_pfister_form(field: FieldDesc, coeffs) -> GWClass:
    """The n-fold Pfister form: tensor product of the <1, -a_i>.

    Convention: <<a_1,...,a_n>> uses the factors <1, -a_i>; both signs
    appear in the literature, this package fixes the minus convention.
    Built from its diagonal: the 2^n products of the -a_i over the subsets
    of the slots, in the Kronecker product's order.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("a Pfister form needs at least one slot")
    if 2 ** len(coeffs) > MAX_MADE_RANK:
        raise ValueError(f"a {len(coeffs)}-fold Pfister form exceeds rank "
                         f"{MAX_MADE_RANK}")
    one = field.one()
    entries = [one]
    for a in coeffs:
        a = field.coerce(a)
        if not a:
            raise ValueError("Pfister slots must be nonzero")
        entries = [e * s for e in entries for s in (one, -a)]
    return make_diagonal_form(field, entries)


# ---------------------------------------------------------------------------
# Invariants.


def get_rank(beta: GWClass) -> int:
    return beta.rank


def get_signature(beta: GWClass) -> int:
    if beta.field.kind not in ("QQ", "RR"):
        raise ValueError("signature undefined over this field")
    return beta._signature


@functools.lru_cache(maxsize=64)
def canonical_nonsquare(field: FieldDesc) -> FFElement:
    """The first nonsquare of GF(q) in the order of ``field.elements()``.

    For even k every c in GF(p)* is a square in GF(p^k), so a line {c*a}
    is all squares or all nonsquares, and its first element is the one
    whose first nonzero coordinate is 1: only those are tested.  For odd k
    the plain scan ends within the least nonresidue of GF(p).
    """
    if field.kind != "GF":
        raise ValueError("canonical nonsquare is defined for finite fields "
                         "only")
    candidates = field.elements() if field.degree % 2 else _line_leaders(field)
    for a in candidates:
        if a and not is_square(a, field):
            return a
    raise AssertionError("no nonsquare found")  # unreachable for q > 1


def _gf_class_rep(a, field: FieldDesc) -> FFElement:
    """The representative of a's square class in GF(q)*: 1 or the canonical
    nonsquare."""
    return field.one() if is_square(a, field) else canonical_nonsquare(field)


def _line_leaders(field: FieldDesc):
    """The elements whose first nonzero coordinate is 1, in lexicographic
    order: leading zeros, a 1, then any tail."""
    p, k = field.char, field.degree
    for i in range(k - 1, -1, -1):
        for v in _coefficient_vectors(p, k - i - 1):
            yield field.coerce((0,) * i + (1,) + v)


def get_discriminant(beta: GWClass):
    """Determinant of the Gram matrix as a canonical square-class representative.

    Squarefree integer over QQ, +-1 over RR, 1 over CC, and 1 or the fixed
    smallest nonsquare over GF(q).
    """
    return beta._invariants.discriminant


def hilbert_symbol(a, b, p: int) -> int:
    """(a, b)_p: whether z^2 = a x^2 + b y^2 has a nonzero Q_p-point.

    Serre's closed form, read off the integers n*d in the square classes
    of a = n/d and b: their p-adic valuations and unit residues.  The
    formulas are cross-checked against a finite primitive-solution search
    in the test suite.
    """
    a, b = _class_integer(a), _class_integer(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol arguments must be nonzero")
    _check_prime(p)
    return _hilbert(a, b, p)


def _hilbert(a: int, b: int, p: int) -> int:
    """(a, b)_p for nonzero integers a, b and a prime p, unchecked."""
    return _symbol(*_split_prime(a, p), *_split_prime(b, p), p)


def _symbol(alpha: int, u: int, beta: int, v: int, p: int) -> int:
    """(a, b)_p for a = p^alpha * u and b = p^beta * v, u and v prime to p:
    Serre's closed form reads only the valuations' parities and the units'
    residues mod p, or mod 8 at p = 2."""
    if p != 2:
        half = (p - 1) // 2
        result = -1 if alpha * beta * half % 2 else 1
        if beta % 2 and pow(u % p, half, p) != 1:
            result = -result
        if alpha % 2 and pow(v % p, half, p) != 1:
            result = -result
        return result
    u8, v8 = u % 8, v % 8
    eps_u, eps_v = (u8 - 1) // 2 % 2, (v8 - 1) // 2 % 2
    om_u, om_v = (u8 * u8 - 1) // 8 % 2, (v8 * v8 - 1) // 8 % 2
    return -1 if (eps_u * eps_v + alpha * om_v + beta * om_u) % 2 else 1


def hasse_witt_invariant(beta: GWClass, p: int) -> int:
    """Product of the pairwise Hilbert symbols of a diagonalization, read
    off the class's record: one pass over its pivots at p, or 1 at a prime
    the record does not key (see `_square_class_invariants`)."""
    _check_prime(p)
    if beta.field.kind != "QQ":
        raise ValueError("Hasse-Witt invariants are defined over QQ only")
    return beta._invariants.hasse_witt.get(p, 1)


@dataclass(frozen=True, eq=True)
class InvariantBundle:
    rank: int
    signature: Optional[int]
    discriminant: object
    hasse_witt: Optional[dict]

    def __post_init__(self):
        if self.signature is not None:
            if abs(self.signature) > self.rank or \
               (self.signature - self.rank) % 2:
                raise ValueError("signature incompatible with rank")


def _square_class_invariants(beta: GWClass) -> InvariantBundle:
    """The invariants of a class, from its one elimination; over GF(q) from
    its determinant alone, handed over or read off that elimination.

    Over QQ, d_j = a_1 ... a_j over the pivots' class integers ends in the
    determinant's square class, and Hasse-Witt is prod_j (d_{j-1}, a_j)_p.
    Both are read at 2 and the primes of one factorization, always of
    L * num(det) with L the lcm of the Gram's denominators: at any other p,
    L^2 * gram is unimodular, so det is a unit times a square and
    Hasse-Witt is 1, though a pivot need not be a unit there (those of
    [[3, 1], [1, 1]] are 3 and 2/3).  Each prime is one pass over the
    pivots, each split there once: d_j's class at p is carried as its
    valuation's parity and its unit's residue (mod p, or mod 8 at 2), the
    symbols are multiplied in (`_symbol`; at odd p only where a parity is
    odd, as the symbol of two units is 1), and the discriminant's primes
    are those where the last parity is odd.
    Keys: 2, the discriminant's primes and where -1.
    """
    field, rank = beta.field, beta.rank
    if field.kind == "GF":
        return InvariantBundle(rank, None,
                               _gf_class_rep(beta._determinant, field), None)
    _, det, lcd = beta._elimination
    if field.kind == "CC":
        return InvariantBundle(rank, None, 1, None)
    signature = beta._signature
    if field.kind == "RR":
        return InvariantBundle(rank, signature, 1 if det > 0 else -1, None)
    # L^2 * gram is unimodular at odd p prime to L * num(det)
    primes = sorted({2, *fields.factorize(lcd * det.numerator)})
    pivots = [_class_integer(a) for a in beta._pivots]
    hasse_witt = {}
    disc = -1 if det < 0 else 1
    for p in primes:
        m = 8 if p == 2 else p
        alpha, u, symbol = 0, 1, 1  # d_0 = 1
        for a in pivots:
            b, v = _split_prime(a, p)
            b %= 2
            if alpha or b or p == 2:  # else the symbol is 1
                symbol *= _symbol(alpha, u, b, v, p)
            alpha, u = alpha ^ b, u * v % m
        hasse_witt[p] = symbol
        if alpha:
            disc *= p
    return InvariantBundle(rank, signature, disc,
                           _record_symbols(disc, hasse_witt))


def _record_symbols(disc: int, symbols: dict) -> dict:
    """The symbols a record keeps: at 2, at the primes of disc, and where
    they are -1.  Any other prime's symbol is 1."""
    return {p: t for p, t in symbols.items()
            if p == 2 or t == -1 or disc % p == 0}


def get_invariants(beta: GWClass) -> InvariantBundle:
    inv = beta._invariants
    if inv.hasse_witt is None:
        return inv
    # A copy, so a caller's edits cannot reach the class's record.
    return dataclasses.replace(inv, hasse_witt=dict(inv.hasse_witt))


def is_isomorphic_form(b1: GWClass, b2: GWClass) -> bool:
    """Equal records, each keyed by its class (Hasse-Minkowski over QQ)."""
    if b1.field != b2.field:
        raise ValueError("field mismatch")
    return b1._invariants == b2._invariants


def base_change(beta: GWClass, target: FieldDesc) -> GWClass:
    """Re-tag a rational class as a real or complex one."""
    if beta.field != QQ or target.kind not in ("RR", "CC"):
        raise ValueError("base change is supported from QQ to RR or CC only")
    changed = GWClass(target, beta.gram)
    # Over QQ, RR and CC the elimination is one computation: hand beta's
    # over where the cached property keeps its value.
    vars(changed)["_elimination"] = beta._elimination
    return changed
