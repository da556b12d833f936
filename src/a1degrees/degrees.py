"""Local and global A1-Brouwer degrees via Bezoutian bilinear forms.

The pipeline: build the divided-difference matrix of the system in a
doubled ring, take its determinant modulo the ideal's Groebner basis in
the X-copy and the Y-copy of the variables, and read the Gram matrix off
the standard-monomial (or local-algebra) basis grid.  Global degrees and
local degrees at a multiple or non-rational point take this path; only
the basis differs.  At a simple rational zero p the local algebra is k
with basis {1}, B(p, p) = J(p), and the local degree is <det J(p)>
(Kass-Wickelgren), the value the local-ideal test already takes: no
Bezoutian is built.  A point given by n linear generators, one per
variable, has its basis written down, any other its basis computed; p is
read off either basis, J(p) off the kernel terms, and `poly.determinant`
runs its constant-row elimination only.  Over every field the kernel
computes on ints: over GF(p^k) the Kronecker-packed elements of
`fields.FieldDesc.reduce`, which for data in GF(p) are their residues, so
such a system costs about what it does over GF(p) without being moved
there.

The determinant (`poly.determinant`) first reduces every entry modulo
the X/Y basis as it enters the kernel, and divides no polynomial while
it expands.  Rows of field constants (the linear f_i, and every row of
the Bezoutian modulo a basis with one stair, where each entry reduces to
a constant) are cleared by column operations on ints, fraction-free over
QQ, leaving +-pivot as a scalar factor.  The k x k block left is
expanded by minors, bottom rows first, each memoized by its column
subset: k * 2^(k-1) products of an entry and a minor, with
2^k <= prod deg f_i, the size of the Gram matrix.  The expansion is
reduced once more before it leaves.  Reducing the entries gives the same
normal form, as det is an integer polynomial in them, and keeps a
high-degree f_i from expanding past the local algebra.

A basis with no zeros at infinity takes no Bezoutian, over GF(q), and over
QQ up to MAX_QQ_RESIDUE_RANK_PER_VARIABLE per variable.  Its Gram is G^-1 for
G_ab = eta(e_a e_b) on the standard monomials, eta the global residue
(Scheja-Storch 1975; Cattani, Dickenstein and Sturmfels, "Residues and
resultants", 1998).  The path runs when the staircase has prod deg f_i
monomials, so, by Bezout, no zeros at infinity.
Such a staircase is that of the top forms, a complete intersection
(Macaulay 1916; Moller and Sauer, "H-bases for polynomial interpolation and
system solving", 2000), so exactly one stair, the last, sigma, has the top
degree rho = sum (deg f_i - 1); this is asserted, not tested.  Eta
vanishes below rho (Euler-Jacobi), and eta(det a_ij) = 1 for the top forms
f_i^top = sum_j a_ij x_j, so eta(h) = coeff_sigma NF(h) / c with
c = coeff_sigma NF(det a_ij), one `poly.determinant` reduced once.  The
normal forms of the border monomials x_j e_b come from the reduced basis
by the FGLM walk, over QQ as ints over one denominator each; G' = c * G
from l_1 = e_sigma and l_{x_j m} = M_j^T l_m; and the Gram matrix is
c * G'^-1.  Over GF(q) it comes from Gauss-Jordan on kernel ints, whose
pivots give det G', so the class is handed its determinant
c^size / det G' (`forms._checked`), the one value a GF(q) class's
invariants read.  Over QQ it comes from a fraction-free symmetric sweep
of G' in reverse order, whose pivots are, by Jacobi's complementary-minor
identity, the Gram matrix's own symmetric pivots: the class is handed its
whole elimination.  Either way no symmetric elimination runs.  Every other
basis (zeros at infinity, a larger rank over QQ, a local algebra smaller
than prod deg f_i, where I + m^k is not I, or over QQ a G' with a
vanishing trailing principal minor, where the Gram matrix has a vanishing
leading one) takes the Bezoutian as above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce as fold
from math import gcd, lcm, prod
from operator import mul, pos

from .fields import _power
from .forms import MAX_MADE_RANK, GWClass, _checked, empty_form
from .poly import (GroebnerBasis, Ideal, Polynomial, PolyRing, _basis_of,
                   _enter, _from_kernel, _prep_divisor, _reduce_terms,
                   _scalar, determinant, groebner_basis, standard_monomials)

__all__ = [
    "EndoSystem",
    "BezoutianMatrix",
    "LocalAlgebraBasis",
    "bezoutian_matrix",
    "global_a1_degree",
    "local_algebra_basis",
    "local_a1_degree",
]


@dataclass(frozen=True)
class EndoSystem:
    """A square polynomial system f = (f_1, ..., f_n) on affine n-space."""

    ring: PolyRing
    polys: tuple

    def __post_init__(self):
        if self.ring.order != "grevlex":
            raise ValueError("a system's ring must be ordered by grevlex")
        if len(self.polys) != self.ring.nvars:
            raise ValueError("system must be square: one polynomial per variable")
        for f in self.polys:
            if not isinstance(f, Polynomial) or f.ring != self.ring:
                raise ValueError("all polynomials must live in the system's ring")

    @property
    def bezout_number(self) -> int:
        """prod deg f_i; it bounds the number of isolated zeros."""
        return prod(max(f.total_degree(), 0) for f in self.polys)

    @cached_property
    def bezoutian_terms(self) -> int:
        """The terms of the Bezoutian's rows: a term of f_i of degree d
        puts d terms in row i.  Kept, so a system that serves several
        local queries counts them once."""
        degree = self.ring._packing.degree
        return sum(degree(m) for f in self.polys for m in _enter(f)[1])

    @classmethod
    def of(cls, ring: PolyRing, *polys) -> "EndoSystem":
        return cls(ring, tuple(p if isinstance(p, Polynomial) else
                               ring.from_string(p) for p in polys))


@dataclass(frozen=True)
class BezoutianMatrix:
    doubled_ring: PolyRing
    entries: tuple  # n x n tuple of Polynomial in the doubled ring

    def determinant(self, modulo=None) -> Polynomial:
        """det B, or its normal form modulo a Groebner basis in the
        doubled ring: see `poly.determinant`."""
        return determinant(self.entries, self.doubled_ring, modulo)


@dataclass(frozen=True)
class LocalAlgebraBasis:
    point_ideal: Ideal
    local_ideal: Ideal
    basis: tuple  # monomials, ascending


def doubled_ring(ring: PolyRing) -> PolyRing:
    names = tuple(f"X{v}" for v in ring.variables) + \
        tuple(f"Y{v}" for v in ring.variables)
    return PolyRing(ring.field, names)


def bezoutian_matrix(system: EndoSystem) -> BezoutianMatrix:
    """The n x n divided-difference matrix in variables X_i, Y_i.

    Entry (i, j) is the difference quotient of f_i between the staggered
    substitutions (Y_1..Y_{j-1}, X_j..X_n) and (Y_1..Y_j, X_{j+1}..X_n)
    by X_j - Y_j, written out: since (X^m - Y^m)/(X - Y) is the sum of
    X^t * Y^(m-1-t) over t < m, a term c*z^e of f_i contributes
        c * prod_{k<j} Y_k^e_k * prod_{k>j} X_k^e_k * X_j^t * Y_j^(e_j-1-t)
    for t = 0..e_j-1.  Distinct (e, t) give distinct monomials, so no two
    contributions combine.  The entries are built from f_i's kernel terms
    and kept in that form, over f_i's den: a packed monomial is linear in
    its exponents, so the contribution's key is the sum of the doubled
    ring's variable keys times their exponents.
    """
    ring = system.ring
    n = ring.nvars
    dring = doubled_ring(ring)
    xs, ys = dring._packing.units[:n], dring._packing.units[n:]
    unpack = ring._packing.unpack
    rows = []
    for f in system.polys:
        den, kernel = _enter(f)
        row = [{} for _ in range(n)]
        for m, c in kernel.items():
            e = unpack(m)
            # The keys of prod_{k<j} Y_k^e_k and of prod_{k>j} X_k^e_k.
            before, after = 0, sum(map(mul, e, xs))
            for d, entry, x, y in zip(e, row, xs, ys):
                after -= d * x
                if d:  # t = 0, then t steps of X_j / Y_j
                    key = before + after + (d - 1) * y
                    for _ in range(d):
                        entry[key] = c
                        key += x - y
                before += d * y
        rows.append(tuple(_from_kernel(dring, entry, den) for entry in row))
    return BezoutianMatrix(dring, tuple(rows))


def _degree_from_basis(system: EndoSystem, basis_gb: GroebnerBasis) -> GWClass:
    """The class of the Gram matrix of NF(det B) on basis_gb's standard
    monomials: from the residue where `_residue_gram` applies, else read
    off the determinant's kernel terms, the cell of a term found
    by its packed key, the sum of a standard monomial's X-copy and
    another's Y-copy."""
    ring = system.ring
    n, field = ring.nvars, ring.field
    stairs = basis_gb._stairs
    if not stairs:
        return empty_form(field)
    residue = _residue_gram(system, basis_gb)
    if residue is not None:
        return _checked(field, *residue)
    bez = bezoutian_matrix(system)
    unpack, units = ring._packing.unpack, bez.doubled_ring._packing.units

    # A monomial's X-copy (Y-copy) is keyed as each Bezoutian term is: a
    # packed monomial is linear in its exponents, so the key is the sum of
    # the doubled ring's X (Y) variable keys times the exponents.
    def copier(variables):
        return lambda m: sum(map(mul, unpack(m), variables))

    copies = copier(units[:n]), copier(units[n:])
    xs, ys = ([copy(m) for m in stairs] for copy in copies)
    cells = {a + b: (i, j) for i, a in enumerate(xs)
             for j, b in enumerate(ys)}
    # The X-copy and the Y-copy have leading monomials in disjoint
    # variables, so every cross S-pair passes the product criterion and
    # their union is a Groebner basis of I_X + I_Y.  Both are the basis's
    # own divisors, copied into the doubled ring: the coefficients stay, and
    # among monomials in one copy's variables the doubled grevlex orders as
    # the basis's does, so leading monomials stay leading.
    den, reduced = _enter(bez.determinant(
        [(copy(lm), u, [(copy(e), c) for e, c in tail])
         for copy in copies for lm, u, tail in basis_gb._divisors]))
    size = len(stairs)
    zero = field.zero()
    gram = [[zero] * size for _ in range(size)]
    scalar = _scalar(field, den)
    for m, c in reduced.items():
        cell = cells.get(m)
        if cell is None:
            raise AssertionError(
                "reduced Bezoutian left the basis grid; reduction bug")
        i, j = cell
        gram[i][j] = scalar(c)
    return _checked(field, gram)


def _residue_gram(system: EndoSystem, gb: GroebnerBasis):
    """The Gram matrix of NF(det B) on gb._stairs, the standard monomials
    as ascending keys, from the global residue: (rows, det, elimination),
    `forms._checked`'s arguments, the rows as field elements with, over
    GF(q), the determinant and, over QQ, the elimination.  None unless
    there are prod deg f_i stairs, and over QQ unless there are at most
    MAX_QQ_RESIDUE_RANK_PER_VARIABLE per variable and no trailing
    principal minor of G' vanishes.  Then the last stair, sigma,
    is the only one of degree rho = sum (deg f_i - 1) (Macaulay), and G'
    is nonsingular: either failing is a bug, raised as an AssertionError.
    See the module docstring."""
    ring = system.ring
    pk, field = ring._packing, ring.field
    reduce, units, guard = field.reduce or pos, pk.units, pk.guard
    stairs = gb._stairs
    size, degree = len(stairs), [f.total_degree() for f in system.polys]
    rho = sum(degree) - len(degree)
    if size != system.bezout_number or field.kind != "GF" and \
            size > MAX_QQ_RESIDUE_RANK_PER_VARIABLE * len(units):
        return None
    if pk.degree(stairs[-1]) != rho or \
            size > 1 and pk.degree(stairs[-2]) == rho:
        raise AssertionError("the last stair is not the only one of degree "
                             "rho; residue bug")
    # c = coeff_sigma NF(det a_ij) for f_i's top form sum_j a_ij x_j, each
    # term sent to its first variable: c * eta(sigma) = 1.
    rows = []
    for f, d in zip(system.polys, degree):
        row = [{} for _ in units]
        den, terms = _enter(f)
        for m, v in terms.items():
            if pk.degree(m) == d:
                j = next(j for j, x in enumerate(units) if not m - x & guard)
                row[j][m - units[j]] = v
        rows.append([_from_kernel(ring, t, den) for t in row])
    # NF(det) is canonical: the expansion is reduced once, its entries not.
    den, det = _enter(determinant(rows, ring))
    det, s = _reduce_terms(ring, det, gb._divisors)
    c, cden = det.get(stairs[-1]), s * den  # c / cden; cden is 1 over GF
    if not c:
        raise AssertionError("the residue's normalizer vanished; residue bug")
    # The normal forms of the border monomials x_j * e_b, ascending, as
    # (den, ints on the stairs) in lowest terms; a stair's is itself, kept
    # as its index.  A leading monomial's is minus its divisor's tail over
    # its leading coefficient; any other border monomial u is x * w for a
    # border monomial w below it, and NF(u) = x * NF(w), whose terms x * s
    # are stairs or border monomials below u (FGLM).  Over GF every den is 1.
    index = {m: i for i, m in enumerate(stairs)}
    tails = {lm: (u, tail) for lm, u, tail in gb._divisors}
    nf = dict(index)
    for u in sorted({m + x for m in stairs for x in units} - index.keys()):
        out = [0] * size
        if u in tails:
            lc, tail = tails[u]
            for e, v in tail:
                out[index[e]] = -v
            nf[u] = lc, out
            continue
        x = next(x for x in units if type(nf.get(u - x)) is tuple)
        dw, w = nf[u - x]
        d = 1  # out is over d
        for s, a in enumerate(w):
            if a:
                t = nf[stairs[s] + x]
                if type(t) is int:
                    out[t] += a * d
                    continue
                dt, t = t
                if dt != d:
                    g = dt // gcd(d, dt)
                    if g != 1:
                        out, d = [v * g for v in out], d * g
                    a *= d // dt
                out = [v + a * b for v, b in zip(out, t)]
        nf[u] = _lowest(dw * d, list(map(reduce, out)))
    # Row a of G' = c * G is l_a(e_b) = coeff_sigma NF(e_a * e_b), as ints
    # over dens[a]: l_1 is the indicator of sigma, and l_{x m}(e_b) =
    # l_m(NF(x * e_b)).  G' is symmetric, so only the entries from the
    # diagonal on are computed.  Entries over different dens are brought to
    # their lcm, unless every normal form is integral, as over GF: then so
    # is every row.
    integral = all(type(t) is int or t[0] == 1 for t in nf.values())
    gram, dens = [[0] * (size - 1) + [1]], [1]
    for a, m in enumerate(stairs[1:], 1):
        x = next(x for x in units if m - x in index)
        prev, dp = gram[index[m - x]], dens[index[m - x]]
        row = [gram[b][a] for b in range(a)]
        for e in stairs[a:]:
            t = nf[e + x]
            row.append(prev[t] if type(t) is int else
                       reduce(sum(map(mul, t[1], prev))))
        d = 1
        if not integral:
            ds = dens[:a] + [dp if type(t) is int else dp * t[0]
                             for t in (nf[e + x] for e in stairs[a:])]
            d = lcm(*ds)
            d, row = _lowest(d, [v * (d // dv) for v, dv in zip(row, ds)])
        gram.append(row)
        dens.append(d)
    if field.kind == "GF":
        return _inverse_gf(field, gram, c)
    return _inverse_qq(gram, dens, c, cden)


def _lowest(den: int, ints: list) -> tuple:
    """(den, ints), ints over den, divided by their gcd."""
    g = gcd(den, *ints) if den != 1 else 1
    return (den, ints) if g == 1 else (den // g, [v // g for v in ints])


def _inverse_gf(field, gram: list, c: int) -> tuple:
    """Gauss-Jordan on [G' | c * I] leaves c * G'^-1, the Bezoutian's Gram
    matrix (Scheja-Storch), on the right.  Every product is of two reduced
    ints, and each entry takes one per step: an entry is a sum of such
    products, reduced where it is read as a pivot or a factor.  det G' is
    the product of the pivots, negated per row swap, so the Gram matrix's
    is c^size / det G', one factor c / pivot per step."""
    reduce, size = field.reduce, len(gram)
    mat = [row + [c if i == j else 0 for j in range(size)]
           for i, row in enumerate(gram)]
    det = 1
    for k in range(size):
        r = next((r for r in range(k, size) if reduce(mat[r][k])), None)
        if r is None:
            raise AssertionError("the residue form is singular; residue bug")
        if r != k:
            mat[k], mat[r] = mat[r], mat[k]
            det = -det
        row = mat[k]
        inv = field.invert(row[k])
        det = reduce(det * reduce(c * inv))
        row[k:] = [reduce(reduce(v) * inv) if v else 0 for v in row[k:]]
        pivot = [(j, w) for j, w in enumerate(row[k:], k) if w]
        for i, row in enumerate(mat):
            f = i != k and reduce(row[k])
            if f:
                for j, w in pivot:
                    row[j] -= f * w
    scalar = _scalar(field, 1)
    return ([[scalar(reduce(v)) for v in row[size:]] for row in mat],
            scalar(det), None)


def _inverse_qq(gram: list, dens: list, c: int, cden: int):
    """B = c * G'^-1 over QQ, G' the int rows over dens, with B's
    elimination, as (B, None, elimination); None where a trailing principal
    minor of G' vanishes.

    A = D * G', D = lcm(dens), is swept in place, fraction-free (Bareiss):
    sweeping k sets every other entry (i, j) to (p * a_ij - a_ik * a_kj) /
    prev, for the pivot p = a_kk and the previous pivot prev, exactly, and
    a_kk to -prev; row and column k stay.  The matrix stays symmetric, so
    only its upper triangle is kept, as one list updated by one expression
    per sweep, and after the last sweep it is -P * A^-1, P = det A.  The
    sweeps run in reverse order, so the pivot p_i is A's trailing principal
    minor from i on, and by Jacobi's complementary-minor identity B's
    leading i x i minor is c^i * T_{n-i}(G') / det G': B's symmetric pivots
    are c * D * p_{i+1} / p_i (p_n = 1), `forms._eliminate`'s on B, handed
    over with det B = (c * D)^n / P.  A zero pivot is a vanishing trailing
    minor, so a vanishing leading minor of B: the sweep stops there, and B
    is left to the Bezoutian."""
    size, D = len(gram), lcm(*dens)
    # The upper triangle as one list, row by row: entry t is (I[t], J[t]),
    # and at[k][i] is where (i, k), or (k, i), is.
    I = [i for i in range(size) for _ in range(i, size)]
    J = [j for i in range(size) for j in range(i, size)]
    at = [[0] * size for _ in range(size)]
    for t, (i, j) in enumerate(zip(I, J)):
        at[i][j] = at[j][i] = t
    a = [gram[i][j] * (D // dens[i]) for i, j in zip(I, J)]
    pivots, prev = [], 1
    for k in reversed(range(size)):
        col = [a[t] for t in at[k]]
        p = col[k]
        if not p:
            return None
        pivots.append(Fraction(c * D * prev, cden * p))
        a = [(p * v - col[i] * col[j]) // prev for v, i, j in zip(a, I, J)]
        for t, v in zip(at[k], col):
            a[t] = v
        a[at[k][k]] = -prev
        prev = p
    # B = c * G'^-1 = c * D * A^-1 = c * D * a / -P.  Entry x / den has
    # the denominator den / gcd(x, den), so their lcm is den / g for g the
    # gcd of den and every x.
    cd, den, zero = c * D, -cden * prev, Fraction(0)
    entries = [Fraction(cd * v, den) if v else zero for v in a]
    B = [[entries[t] for t in row] for row in at]
    lcd = abs(den) // gcd(den, *(cd * v for v in a))
    return B, None, (tuple(reversed(pivots)),
                     Fraction(cd ** size, cden ** size * prev), lcd)


# The largest Bezout number prod deg f_i of a system whose global degree is
# computed; it bounds the rank.  On a 2-core Intel Xeon VM with Python 3.11,
# the basis and the Gram of perfbench's random_system(Random(1), shape,
# top=3, low=3), parsed, took in CPU seconds (past 128 with the cap lifted):
# over QQ, by the Bezoutian, (128,) 0.22-0.24, (256,) 3.4 and (2,)*7 58;
# by the residue, over GF(7) (256,) 0.15-0.16, (512,) 1.0 and (2,)*7
# 1.1-1.3, and over GF(25) (2,)*7 1.1-1.2.
MAX_BEZOUT = 128

# The largest rank per variable of a QQ Gram matrix that `_residue_gram`
# computes; a larger one takes the Bezoutian.  The residue's exact inverse
# grows with the rank alone, the Bezoutian's determinant with the number of
# variables too.  On a 2-core Intel Xeon VM with Python 3.11, the Gram and
# invariants after the basis of perfbench's random_system(Random(s), shape,
# top=3, low=3), s = 1-3, took, Bezoutian / residue, in ms: where the rule
# takes the residue, (6,) 0.21-0.24 / 0.19-0.20, (3, 4) 0.65-0.97 /
# 0.57-0.77 and (3, 3, 2) 4.0-4.3 / 2.5-3.4; where it takes the Bezoutian,
# (12,) 0.54-0.59 / 0.58-0.59, (4, 4) 1.2-1.8 / 1.2-1.5, (5, 5) 5.0-5.7 /
# 7.4-8.4 and (2, 2, 5) 5.6-6.5 / 2.9-3.5, a shape the rule misses.
MAX_QQ_RESIDUE_RANK_PER_VARIABLE = 6

# The most terms the Bezoutian of a local query may have: a term of f_i of
# degree d puts d terms in row i.  Local queries have no Bezout-number cap,
# as a high-degree system can have a small local algebra, but the rows are
# built before any reduction, and a point's values or normal forms and the
# local bases also run linear in the degree: this bounds local degrees and
# local bases alike, checked before the point's basis.  With the cap
# lifted, on a 2-core Intel Xeon VM with Python 3.11 (CPU time), the rank-2
# (x^1000)^k - x^2; y at the origin took 0.10-0.13 s at k = 100 (100,003
# terms) and 1.1-1.2 s at k = 1000, and the local basis of
# (x^1000)^1000 - 1; y at x - 1; y 1.3-1.5 s; (x^1000)^1000 - x; y, a
# simple zero that builds no Bezoutian, took under 1 ms.
MAX_BEZOUTIAN_TERMS = 10 ** 5


def global_a1_degree(system: EndoSystem) -> GWClass:
    """Gram matrix of the Bezoutian on the standard-monomial basis of Q(f)."""
    if system.bezout_number > MAX_BEZOUT:
        raise ValueError(f"Bezout number {system.bezout_number} exceeds "
                         f"{MAX_BEZOUT}")
    gb = groebner_basis(Ideal(system.ring, system.polys))
    return _degree_from_basis(system, gb)


def _local_ideal(system: EndoSystem, point: Ideal) -> tuple:
    """(gb, jac): the m-primary component of I, as the reduced basis gb of
    I + m^k, and det J(p) at a simple rational zero p, else None.

    m's basis is written down (`_written_point`) where it can be, else
    computed; a computed basis not led by the n variables is checked first
    for f to vanish, by division modulo it, so that a point ideal that is
    not zero-dimensional fails on the zero locus.  A basis with one stair
    is that of a rational point p, m maximal with residue field k: p is
    read off it (`_coordinates`), `_at_point` reads f_i(p), which must
    vanish, and J(p) off the kernel terms, and det J(p) is one elimination
    of scalars.  If it is nonzero, the linear parts of the f_i
    span m/m^2, so I + m^2 = m: the zero is simple, and m's own basis is
    returned with that value.  Otherwise (and at any point of larger
    dimension, which need not be maximal) k grows from m's basis until
    dim Q/(I + m^k) stops growing; then m^k = m^(k+1) locally, so by
    Nakayama I + m^k is the component.
    Refined Bezout caps an isolated multiplicity at prod(deg f_i); a larger
    dimension means the zeros are not isolated.  A dimension above
    forms.MAX_MADE_RANK is refused before the next basis, as the Gram
    matrix of that rank would be.  Before any of this, a system past
    MAX_BEZOUTIAN_TERMS is refused, for local degrees and bases alike.  A
    point whose basis is (1) names no point, and is refused.
    """
    ring = system.ring
    if point.ring != ring:
        raise ValueError("polynomial ring mismatch")
    terms = system.bezoutian_terms
    if terms > MAX_BEZOUTIAN_TERMS:
        raise ValueError(f"the Bezoutian has {terms} terms, more than "
                         f"{MAX_BEZOUTIAN_TERMS}")
    gb = _written_point(ring, point)
    if gb is None:
        gb = groebner_basis(point)
        # A basis led by the n variables is a rational point's, where
        # `_at_point` checks f below.
        rational = sorted(lm for lm, _, _ in gb._divisors) == \
            sorted(ring._packing.units)
        if not rational and any(
                _reduce_terms(ring, _enter(f)[1], gb._divisors)[0]
                for f in system.polys):
            raise ValueError("point not in zero locus")
    dim = len(gb._stairs)
    if not dim:
        raise ValueError("the point's ideal is the unit ideal")
    if dim == 1:
        p = _coordinates(ring, gb)
        at = [_at_point(ring, f, p) for f in system.polys]
        if any(value for value, _ in at):
            raise ValueError("point not in zero locus")
        jac = determinant([row for _, row in at], ring.field)
        if jac:
            return gb, jac
    while True:
        if dim > system.bezout_number:
            raise ValueError("zeros are not isolated")
        if dim > MAX_MADE_RANK:
            raise ValueError(f"local rank is at least {dim}, more than "
                             f"{MAX_MADE_RANK}")
        gb = groebner_basis(Ideal(ring, system.polys + tuple(
            g * m for g in gb.basis for m in point.generators)))
        grown = len(gb._stairs)
        if grown == dim:
            return gb, None
        dim = grown


def _written_point(ring: PolyRing, point: Ideal):
    """The point's reduced basis when its ideal has n generators c*x_i + d,
    one per variable, else None: each generator's `_prep_divisor` triple is
    the reduced element x_i - a_i, so this is `groebner_basis(point)`,
    triples and all, with its one stair."""
    units = ring._packing.units
    if len(point.generators) != len(units):
        return None
    triples = []
    for g in point.generators:
        terms = _enter(g)[1]
        lm = max(terms, default=0)
        if lm not in units or terms.keys() - {lm, 0}:
            return None
        triples.append(_prep_divisor(ring.field, terms)[1])
    if len({lm for lm, _, _ in triples}) < len(units):
        return None
    gb = _basis_of(point, sorted(triples))
    vars(gb)["_stairs"] = (0,)
    return gb


def _coordinates(ring: PolyRing, gb: GroebnerBasis) -> list:
    """The point p of a basis with one stair: its reduced elements are
    x_i - a_i, the triples (x_i, lc, [(0, c)] or []), so a_i = -c / lc,
    over GF a reduced int (lc is 1), over QQ an int where lc is 1, else a
    Fraction."""
    reduce = ring.field.reduce
    a = {}
    for lm, lc, tail in gb._divisors:
        c = -tail[0][1] if tail else 0
        a[lm] = reduce(c) if reduce else c if lc == 1 else Fraction(c, lc)
    return [a[x] for x in ring._packing.units]


def _at_point(ring: PolyRing, f: Polynomial, p: list) -> tuple:
    """(f(p) over f's den, [df/dx_j(p) as field scalars]) in one pass over
    f's kernel terms: c * x^e adds c * prod a_i^e_i to f(p), and to each
    partial with e_j > 0 the same with a_j^e_j replaced by e_j * a_j^(e_j -
    1).  Over GF every product goes through the field's reducer before it
    is multiplied again, and powers come from `fields._power`."""
    reduce = ring.field.reduce
    times = (lambda a, b: reduce(a * b)) if reduce else mul
    power = (lambda a, k: _power(a, k, times, 1)) if reduce else pow
    product = ((lambda xs, start: fold(times, xs, reduce(start))) if reduce
               else prod)
    unpack = ring._packing.unpack
    den, terms = _enter(f)
    value, grad = 0, [0] * len(p)
    for m, c in terms.items():
        e = unpack(m)
        full = list(map(power, p, e))
        value += product(full, start=c)
        for j, k in enumerate(e):
            if k:  # a_j^e_j gives way to e_j * a_j^(e_j - 1)
                kept, full[j] = full[j], power(p[j], k - 1)
                grad[j] += product(full, start=c * k)
                full[j] = kept
    if reduce:
        value, grad = reduce(value), map(reduce, grad)
    return value, list(map(_scalar(ring.field, den), grad))


def local_algebra_basis(system: EndoSystem, point: Ideal) -> LocalAlgebraBasis:
    """A basis of the local algebra at the point, read off I + m^k.

    The paper's (I : (I : m^inf)) is the same ideal; `poly.ideal_quotient`
    and `poly.saturation` keep it as public API and as the tests' oracle.
    """
    gb, _ = _local_ideal(system, point)
    return LocalAlgebraBasis(point, Ideal(system.ring, gb.basis),
                             tuple(standard_monomials(gb)))


def local_a1_degree(system: EndoSystem, point: Ideal) -> GWClass:
    """Local degree: the global pipeline run against the local algebra,
    except at a simple rational zero p, where the Gram matrix on the
    basis {1} is det B(p, p) = det J(p), the value `_local_ideal` took.
    That 1 x 1 class is handed its elimination, (pivots, det, L) with
    pivot and determinant det J(p) and L its denominator (1 over GF), so
    none runs."""
    gb, jac = _local_ideal(system, point)
    if jac is not None:
        field = system.ring.field
        lcd = 1 if field.kind == "GF" else jac.denominator
        return _checked(field, [[jac]], elimination=((jac,), jac, lcd))
    return _degree_from_basis(system, gb)
