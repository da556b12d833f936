"""Multivariate polynomials over Q and GF(p^k) with Groebner machinery.

The public monomial order is graded reverse lexicographic over the ring's
variable order.  Ideal intersections (and hence colon ideals) go through a
single auxiliary variable with a block order, which stays internal: a
degree system (`degrees.EndoSystem`) refuses a ring of any other order.

Monomials.  Public polynomials map exponent tuples to coefficients.  Inside
the kernel every monomial is one int (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): 2n fields of 32 bits for n variables.  The high n fields hold the
order's weight rows, most significant first: for grevlex the degree, then
a1 + ... + a(n-1), ..., a1; for the block order `elim1` a0, then the
grevlex rows of the other variables.  The low n fields hold the exponents
themselves.  The rows decide the order, so a larger int is a larger
monomial, e1 + e2 is the product, and with GUARD the top bit of every
field, lm divides m exactly when (m - lm) & GUARD is 0.  That needs every
field below 2^31: no monomial may reach degree 2^31.  Packing refuses one
with ValueError, and the kernel tests the guard bits of each monomial
when it first enters a term dict, so a product or a reduction that would
cross the bound raises too.  A `Polynomial` keeps the form its maker
built and derives the other form on first read, then keeps it too: the
public exponent-tuple terms (`terms`), or the kernel's packed terms over a
positive int den (`_enter`).  The parser, `groebner_basis`'s reduced basis,
`determinant`, `normal_form`, `exact_quotient`, `Polynomial.__mul__`,
`__pow__` and `derivative` build the kernel form, so a chain of them
stays in the kernel; `_enter` derives it from public terms, and `_public`
derives public terms from it, only where a caller reads the form it
lacks.  The structural answers, `bool`, `total_degree`, `is_constant` and
`leading_monomial`, read the kernel form.  One loop, `_mul_into`, forms
every product of term dicts; the parser multiplies two one-term factors
by adding their keys.  `fields._power` forms every power but the
parser's `x^n`, n times x's key.  Rings of one order and size share one
packing.

Coefficients.  Public polynomials over QQ hold `Fraction`s, and over GF
field elements; the kernel's loops see only ints, over every field.  Over
QQ only `_enter`, which makes den * f integral, and `_scalar`, which
divides by den for `_public` and for the degree path's Gram entries, cross
between the two; a determinant over a FieldDesc
reads its scalars' numerators and denominators and makes its one value
the same way.  Over GF(q) nothing is converted: the kernel
int of a coefficient is the reduced int its `FFElement` holds
(`FieldDesc.reduce`), its residue over GF(p), and over GF(p^k) its
coefficients Kronecker-packed, so an element of GF(p) is its residue
there too; `_enter` reads it and `_scalar` wraps it.  The loops add and
multiply these ints without reducing, and a value goes through the
field's reducer (c % p over GF(p)) only where it is read or before it is
multiplied again: when `_reduce_terms` pops it, when the parser forms a
sum or a product, when `determinant` clears a column, grows its pivot
scale or finishes a level of minors, and before a polynomial keeps
kernel terms, which over GF are reduced and nonzero.  The parser's integer
literals lie in GF(p), so over every finite field its terms are residues
mod p.  A divisor is a `_prep_divisor` triple: over QQ its primitive
integer multiple, and division is pseudo-division (Knuth, TAOCP vol. 2,
4.6.1), multiplying the work by a running integer scale instead of
dividing by leading coefficients; over GF it is made monic once, so
nothing scales.  The same heap loop serves every field.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, lcm
from operator import add, le

from .fields import FieldDesc, FFElement, _power

__all__ = [
    "ParseError",
    "PolyRing",
    "Polynomial",
    "Ideal",
    "GroebnerBasis",
    "groebner_basis",
    "normal_form",
    "exact_quotient",
    "determinant",
    "ideal_quotient",
    "saturation",
    "standard_monomials",
    "resultant_univariate",
    "parse_polynomial",
]


# The largest exponent literal the parser accepts.  A global degree's Gram
# matrix has rank prod(deg f_i), so one huge literal would otherwise build
# a huge power and then a huge Bezoutian before anything failed.
MAX_EXPONENT = 1000

# The most term products the parser forms in one polynomial, summed over
# every product and power and checked before each multiplication.  A product
# of a and b forms len(a) * len(b) of them, each weighted 1 + wa * wb // 128,
# wa and wb the sizes of a's and b's widest coefficients in 64-bit words (at
# least 1; over GF(p^k) the words of p, each coefficient a residue mod p):
# about 128 word products cost as much as the rest of one term product.  The
# exponent cap alone leaves the expansion unbounded.  On a 2-core Intel Xeon
# VM with Python 3.11 over QQ, (x+1)^1000 forms about 416,000 (0.2 s; its
# widest coefficients have 16 words), (x+y+z+1)^32 968,000 (0.4 s),
# (x+y+z+1)^40 2.0 million (0.9 s) and (x+y+z+1)^48 7.3 million (3.1 s);
# (1234567890123456789*x+1)^300 forms 3.0 million (0.3 s) and
# (1234567890123456789*x+1)^1000 490 million (29 s).  Over GF(2^2203 - 1),
# 35 words, each product weighs 10: (x+y+z+1)^32 took 4.0 s unweighted and
# stops in 0.15 s weighted.
MAX_PARSE_PRODUCTS = 10 ** 6

# The deepest nesting the parser accepts, counting open parentheses and
# unary signs together.  Each level is a few Python frames, so much deeper
# input would exhaust the interpreter's stack, sooner the deeper the caller.
MAX_NESTING = 100


class ParseError(ValueError):
    """Raised on malformed polynomial / matrix text, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The weight rows of each order, least significant first: the packed fields
# above the exponents.  A monomial's rows are all at most its degree.
_WEIGHT_ROWS = {
    "grevlex": accumulate,
    "elim1": lambda e: (*accumulate(e[1:]), e[0]),
}

_TOO_LARGE = "a monomial of degree 2^31 or more is out of range"


class _Packing:
    """A ring's monomials as ints: the 2n fields of the module docstring,
    written little-endian as signed 32-bit words, so a field of 2^31 or more
    does not pack."""

    __slots__ = ("rows", "fields", "exponents", "size", "guard", "units",
                 "top", "graded")

    def __init__(self, order: str, n: int):
        self.rows = _WEIGHT_ROWS[order]
        self.fields = struct.Struct(f"<{2 * n}i").pack
        self.exponents = struct.Struct(f"<{n}i").unpack_from
        self.size = 8 * n
        self.guard = int.from_bytes(b"\0\0\0\x80" * (2 * n), "little")
        # The variables' keys: a monomial times x_i is m + units[i].
        self.units = [self.pack([int(i == j) for j in range(n)])
                      for i in range(n)]
        # Under grevlex the top field is the degree.
        self.top, self.graded = 32 * (2 * n - 1), order == "grevlex"

    def degree(self, m) -> int:
        """The total degree of the packed monomial m."""
        return m >> self.top if self.graded else sum(self.unpack(m))

    def pack(self, e) -> int:
        try:
            return int.from_bytes(self.fields(*e, *self.rows(e)), "little")
        except struct.error:
            raise ValueError(_TOO_LARGE) from None

    def unpack(self, m) -> tuple:
        return self.exponents(m.to_bytes(self.size, "little"))


# One packing per order and size, shared by the rings that have them: each
# CLI query builds its rings anew.
_packing_of = lru_cache(maxsize=16)(_Packing)


@dataclass(frozen=True)
class PolyRing:
    field: FieldDesc
    variables: tuple[str, ...]
    order: str = "grevlex"

    def __post_init__(self):
        if not self.field.is_exact:
            raise ValueError(
                "polynomial rings require an exact coefficient field (QQ or GF)")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        if not self.variables:
            raise ValueError("a polynomial ring needs at least one variable")
        if self.order not in _WEIGHT_ROWS:
            raise ValueError(f"unknown monomial order {self.order!r}")
        object.__setattr__(self, "_packing",
                           _packing_of(self.order, len(self.variables)))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def constant(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def variable(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one()})

    def from_string(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def __str__(self):
        return f"{self.field}[{','.join(self.variables)}]"


class Polynomial:
    """Immutable sparse polynomial: a map from exponent vectors to
    coefficients (`terms`), or the kernel's packed terms over a positive int
    (`_enter`).  It keeps the form its maker built and derives the other on
    first read, then keeps both."""

    __slots__ = ("ring", "_terms", "_kernel")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self._terms = terms
        # (den, kernel terms) once `_enter` has read or been handed them.
        self._kernel = None

    @property
    def terms(self) -> dict:
        if self._terms is None:
            den, kernel = self._kernel
            self._terms = _public(self.ring, kernel, den)
        return self._terms

    @classmethod
    def make(cls, ring: PolyRing, terms: dict) -> "Polynomial":
        clean = {}
        n = ring.nvars
        for e, c in terms.items():
            c = ring.field.coerce(c)
            if not c:
                continue
            if len(e) != n or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e}")
            clean[tuple(e)] = c
        return cls(ring, clean)

    # -- basic structure ----------------------------------------------------
    # These read the kernel terms, so a polynomial with a monomial of
    # degree 2^31 or more, which `make` accepts, answers none of them.

    def is_zero(self) -> bool:
        return not self

    def __bool__(self):
        return bool(_enter(self)[1])

    def total_degree(self) -> int:
        return max(map(self.ring._packing.degree, _enter(self)[1]), default=-1)

    def is_constant(self) -> bool:
        return _enter(self)[1].keys() <= {0}  # 0 packs to 0

    def leading_monomial(self):
        return self.ring._packing.unpack(max(_enter(self)[1]))

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    # -- arithmetic ---------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomial ring mismatch")
            return other
        return self.ring.constant(other)

    def __add__(self, other):
        terms = dict(self.terms)
        _add_into(terms, self._coerce_other(other).terms)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, _negated(self.terms))

    def __sub__(self, other):
        return self + (-self._coerce_other(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        ring = self.ring
        (da, a), (db, b) = _enter(self), _enter(self._coerce_other(other))
        return _from_kernel(ring, _product(
            a, b, ring._packing.guard, ring.field.reduce), da * db)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        ring = self.ring
        guard, reduce = ring._packing.guard, ring.field.reduce
        den, terms = _enter(self)
        terms = _power(terms, n, lambda a, b: _product(a, b, guard, reduce),
                       {0: 1})
        return _from_kernel(ring, terms, den ** n)

    def derivative(self, i: int) -> "Polynomial":
        """df/dx_i, built in the kernel over f's den: a packed term m * c
        whose exponent e_i is positive becomes (m - units[i]) * (c * e_i).
        Over GF the products go through the field's reducer, which drops
        the terms whose e_i is a multiple of p."""
        ring = self.ring
        pk, reduce = ring._packing, ring.field.reduce
        unit = pk.units[i]
        den, terms = _enter(self)
        out = {m - unit: c * e for m, c in terms.items()
               if (e := pk.unpack(m)[i])}
        return _from_kernel(ring, _residues(out, reduce) if reduce else out,
                            den)

    def map_to(self, target: PolyRing, var_map: list[int]) -> "Polynomial":
        """Reindex variables into another ring over the same field."""
        if target.field != self.ring.field:
            raise ValueError("target ring has a different coefficient field")
        out: dict = {}
        for e, c in self.terms.items():
            e2 = [0] * target.nvars
            for i, x in enumerate(e):
                if x:
                    e2[var_map[i]] += x
            _add_into(out, {tuple(e2): c})
        return Polynomial(target, out)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FFElement)):
            try:
                other = self.ring.constant(other)
            except (ValueError, ZeroDivisionError):  # not in the ring
                return NotImplemented
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for e in sorted(self.terms, key=self.ring._packing.pack, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                v if x == 1 else f"{v}^{x}"
                for v, x in zip(self.ring.variables, e) if x)
            cs = str(c)
            if mono:
                if cs == "1":
                    piece = mono
                elif cs == "-1":
                    piece = f"-{mono}"
                elif isinstance(c, FFElement) and ("+" in cs or "t" in cs):
                    piece = f"({cs})*{mono}"
                else:
                    piece = f"{cs}*{mono}"
            else:
                piece = cs
            out.append(piece)
        text = out[0]
        for piece in out[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self):
        return f"<{self} in {self.ring}>"


# ---------------------------------------------------------------------------
# Division.


def _reduce_terms(ring, fterms: dict, divisors, steps=None):
    """(rem, s): multivariate division of packed terms by `_prep_divisors`
    triples, with s * fterms = rem + sum(q_i * divisor_i) for an int s, 1
    over GF.

    Terms leave a heap in descending order.  Each monomial is pushed once,
    when it enters the work set; one that cancels keeps its entry with a
    zero coefficient and is skipped when popped.  This is sound because a
    reduction step only adds monomials below the one it removes.  Over GF
    a coefficient goes through the field's reducer when it is popped, the
    one place it is read, so the updates below add products of reduced
    ints, at most one per step to each, and one that cancels only in the
    field is skipped there too; rem holds reduced ints.

    u is the divisor's leading coefficient, an int: 1 over GF, where
    every divisor is monic.  A term c that a divisor with u != 1 reduces
    is cleared by pseudo-division: with g = gcd(c, u), the work, the
    remainder and s are multiplied by u // g, and (c // g) * shift *
    divisor is subtracted.  With `steps`, each reduction appends
    (i, shift, c, t), t the value of s at that step: q_i is the sum of
    c * (s // t) * x^shift over divisor i's steps.
    """
    guard, reduce = ring._packing.guard, ring.field.reduce
    work = dict(fterms)
    heap = [-m for m in work]
    heapify(heap)
    rem: dict = {}
    s = 1
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if reduce:
            c = reduce(c)
        if not c:
            continue
        for di, (lm, u, tail) in enumerate(divisors):
            shift = m - lm
            if not shift & guard:
                if u != 1:
                    g = gcd(c, u)
                    c //= g
                    if g != u:
                        a = u // g
                        s *= a
                        for d in (work, rem):
                            for e, v in d.items():
                                d[e] = v * a
                neg = -c
                for e2, c2 in tail:
                    e = shift + e2
                    v = work.get(e)
                    if v is None:
                        if e & guard:
                            raise ValueError(_TOO_LARGE)
                        work[e] = neg * c2
                        heappush(heap, -e)
                    else:
                        work[e] = v + neg * c2
                if steps is not None:
                    steps.append((di, shift, c, s))
                break
        else:
            rem[m] = c
    return rem, s


def _enter(f: Polynomial):
    """(den, terms): den * f in the kernel's form, packed monomials and
    integral coefficients, den a positive integer that makes them so, not
    always the least: 1 over GF, where the coefficients are the elements'
    reduced kernel ints (`FFElement.value`), none of them 0.  A polynomial
    the kernel built has them already, and one built from public terms
    derives and keeps them here; callers do not change the dict."""
    if f._kernel is None:
        pack = f.ring._packing.pack
        if f.ring.field.kind == "QQ":
            den = lcm(*[c.denominator for c in f._terms.values()])
            f._kernel = den, {pack(e): c.numerator * (den // c.denominator)
                              for e, c in f._terms.items()}
        else:
            f._kernel = 1, {pack(e): c.value for e, c in f._terms.items()}
    return f._kernel


def _from_kernel(ring, terms: dict, den=1) -> Polynomial:
    """The polynomial terms / den, kept in the kernel's form: terms packed
    with nonzero int coefficients, reduced over GF, where den is 1, and den
    a nonzero int, made positive here."""
    f = Polynomial(ring, None)
    f._kernel = (den, terms) if den > 0 else (-den, _negated(terms))
    return f


def _residues(terms: dict, reduce) -> dict:
    """The int terms through the field's reducer, without those that
    vanish."""
    return {e: r for e, c in terms.items() if (r := reduce(c))}


def _prep_divisor(field, terms: dict):
    """(k, (lm, u, tail)) for the nonzero kernel terms of g, tail a list of
    (e, c).

    Over QQ the triple's divisor is g / k, g's primitive integer multiple:
    k is g's content with its leading coefficient's sign, and u > 0.  Over
    GF it is k * g, g made monic: k is the kernel int of the inverse of g's
    leading coefficient, taken once here, and u the int 1.
    """
    lm = max(terms)
    if field.kind == "QQ":
        k = gcd(*terms.values())
        if terms[lm] < 0:
            k = -k
        terms = {e: c // k for e, c in terms.items()}
        u = terms[lm]
    else:
        k = u = 1
        if terms[lm] != 1:
            k = field.invert(terms[lm])
            terms = _residues({e: c * k for e, c in terms.items()},
                              field.reduce)
    return k, (lm, u, [(e, c) for e, c in terms.items() if e != lm])


def _prep_divisors(polys):
    """The `_prep_divisor` triples of the nonzero polynomials."""
    return [_prep_divisor(g.ring.field, _enter(g)[1])[1] for g in polys if g]


def _scalar(field: FieldDesc, den):
    """The function taking a kernel coefficient over the positive int den
    to its public scalar: a Fraction over QQ, and over GF, where den is 1,
    the field element that holds the reduced nonzero int."""
    if field.kind == "GF":
        return partial(FFElement, field)
    return Fraction if den == 1 else partial(Fraction, denominator=den)


def _public(ring, terms: dict, den) -> dict:
    """Kernel terms over the positive int den as public terms: exponent
    tuples, and `_scalar`'s coefficients."""
    scalar, unpack = _scalar(ring.field, den), ring._packing.unpack
    return {unpack(m): scalar(c) for m, c in terms.items()}


def exact_quotient(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when the division is exact; raises otherwise."""
    if g.ring != f.ring:
        raise ValueError("polynomial ring mismatch")
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    # den * f = q * divisor, the triple's: den_g * g / k over QQ, where q is
    # integral and s is 1 by Gauss's lemma, which holds for any den that
    # makes den * f integral; and k * g over GF (den 1).
    den_g, terms = _enter(g)
    k, divisor = _prep_divisor(ring.field, terms)
    den, terms = _enter(f)
    steps = []
    if _reduce_terms(ring, terms, [divisor], steps)[0]:
        raise ValueError("division is not exact")
    if ring.field.kind == "QQ":
        return _from_kernel(ring, {shift: c * den_g
                                   for _, shift, c, _ in steps}, k * den)
    return _from_kernel(ring, _residues(
        {shift: c * k for _, shift, c, _ in steps}, ring.field.reduce))


def _negated(terms: dict) -> dict:
    """The term dict of -f, f's given."""
    return {e: -c for e, c in terms.items()}


def _add_into(out: dict, terms: dict) -> None:
    """Add the term dict terms into out."""
    for e, c in terms.items():
        v = out.get(e)
        v = c if v is None else v + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]


def _product(a: dict, b: dict, guard: int, reduce) -> dict:
    """The product of two packed term dicts, through the field's reducer
    over GF, so that a chain of products multiplies reduced ints."""
    out = _mul_into({}, a.items(), b.items(), guard)
    return _residues(out, reduce) if reduce else out


def _mul_into(out: dict, a, b, guard: int) -> dict:
    """Add the product of the packed (e, c) pairs a and b into out, and
    return out."""
    if len(a) > len(b):
        a, b = b, a
    for e1, c1 in a:
        for e2, c2 in b:
            e = e1 + e2
            v = out.get(e)
            if v is None:
                if e & guard:
                    raise ValueError(_TOO_LARGE)
                out[e] = c1 * c2
            else:
                v += c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
    return out


def determinant(rows, ring, modulo=None):
    """Determinant of a square matrix over a PolyRing or a FieldDesc (over
    QQ its scalars may be ints or Fractions); given `modulo`, a Groebner
    basis in ring (a `GroebnerBasis`, its elements or their prepared
    divisors, as `_degree_from_basis` moves them), its normal form
    modulo that basis.  A matrix of any other shape is a ValueError.

    Every entry enters the kernel first, as packed terms over an int
    multiplier (integral over QQ); given `modulo`, it is reduced modulo
    the basis as it enters, so an entry that reduces to a field constant
    counts as one below.  Each row is then brought to one multiplier, the
    lcm of its entries', so the matrix holds ints over every field and the
    multipliers are divided out as the result leaves.  No polynomial is
    ever divided while expanding.  First, while some row holds only
    constants, its first nonzero entry is the pivot, and column operations
    clear the rest of the row: the determinant is +-pivot times the minor
    without that row and column (a zero constant row gives 0).  Over QQ
    the operations are fraction-free (Bareiss): an entry x becomes
    (q * x - v * y) / q', q the pivot, v the row's entry, y the pivot
    column's and q' the previous pivot, which divides it exactly; after
    the last pivot q the determinant is +-q times the minor left over
    q^m, m its size.  Over GF they are Gaussian, through the field's
    `reduce` and `invert`.  Over a FieldDesc every row is constant, so
    this is the whole determinant, and each entry stays one int, not the
    terms of the monomial 0.  Second, the k x k block of
    nonconstant rows left is expanded by minors from the bottom row up,
    each minor of the last m rows memoized by its column subset:
    k * 2^(k-1) products of one entry and one minor.  For a Bezoutian k
    counts the nonlinear f_i, and 2^k <= prod deg f_i, the size of the
    Gram matrix; modulo a basis with one stair every entry of a Bezoutian
    is a constant, and k is 0.  Given
    `modulo`, the expansion is reduced once more before it leaves.  The
    normal form is canonical and the determinant is an integer polynomial
    in the entries, so this is NF(det), the same polynomial as
    normal_form(determinant(rows, ring), modulo).
    """
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("the matrix is not square")
    polynomial = isinstance(ring, PolyRing)
    field = ring.field if polynomial else ring
    qq, reduce = field.kind == "QQ", field.reduce
    divisors = None if modulo is None else _divisors_of(modulo, ring)

    def enter(x):
        """(d, terms): terms is d * x in the kernel's form, or its
        remainder modulo divisors; a field scalar is d * x as an int."""
        if not polynomial:
            return (x.denominator, x.numerator) if qq else (1, x.value)
        d, terms = _enter(x)
        if divisors is not None:
            terms, s = _reduce_terms(ring, terms, divisors)
            d *= s
        return d, terms

    def value(x):
        """The int of a constant entry, or None."""
        if not x:
            return 0
        return x.get(0) if len(x) == 1 else None

    den, a = 1, []
    for row in rows:
        row = [enter(x) for x in row]
        d = lcm(*[dx for dx, _ in row])
        den *= d
        a.append([x if dx == d else x * (d // dx) if not polynomial
                  else {e: c * (d // dx) for e, c in x.items()}
                  for dx, x in row])
    # The last pivot over QQ, the pivots' product over GF.
    sign = scale = 1
    while a:
        for r, row in enumerate(a):
            values = [value(x) for x in row] if polynomial else row[:]
            if None not in values:
                break
        else:
            break
        c = next((j for j, v in enumerate(values) if v), None)
        if c is None:
            return ring.zero()
        q = values.pop(c)
        if qq:  # x -> (q * x - v * y) // the previous pivot
            kx, div, ks = q, scale, [-v for v in values]
            scale = q
        else:  # x -> x - (v / q) * y
            inv = field.invert(q)
            kx, div, ks = 1, 1, [reduce(-v * inv) for v in values]
            scale = reduce(scale * q)
        del a[r]
        for row in a:
            y = row.pop(c)
            if not polynomial:  # the same step on ints
                row[:] = [(kx * x + ky * y) // div for x, ky in zip(row, ks)]
                if reduce:
                    row[:] = map(reduce, row)
                continue
            for j, (x, ky) in enumerate(zip(row, ks)):
                if kx != 1 or div != 1 or (ky and y):
                    out = {e: z * kx for e, z in x.items()}
                    if y and ky:
                        _add_into(out, {e: z * ky for e, z in y.items()})
                    if div != 1:
                        out = {e: z // div for e, z in out.items()}
                    row[j] = _residues(out, reduce) if reduce else out
        if (r + c) % 2:
            sign = -sign
    if qq:  # det = sign * scale * det(a) / scale^len(a)
        den *= scale ** len(a)
    if not polynomial:
        return Fraction(sign * scale, den) if qq else \
            FFElement(field, reduce(sign * scale))
    # minors[S]: the packed minor of the last m rows on the columns in
    # bitmask S, times sign * scale.
    guard = ring._packing.guard
    minors = {0: {0: sign * scale}}
    k = len(a)
    for m in range(1, k + 1):
        row = [(x.items(), _negated(x).items()) for x in a[k - m]]
        grown: dict = {}
        for s, minor in minors.items():
            if not qq:  # reduced before it is multiplied again
                minor = _residues(minor, reduce)
            for j, (entry, negated) in enumerate(row):
                bit = 1 << j
                if s & bit or not entry:
                    continue
                # Column j's sign is the parity of its rank in s | bit.
                odd = bin(s & (bit - 1)).count("1") & 1
                _mul_into(grown.setdefault(s | bit, {}),
                          negated if odd else entry, minor.items(), guard)
        minors = grown
    det = minors.get((1 << k) - 1, {})
    if divisors is not None:
        det, t = _reduce_terms(ring, det, divisors)
        den *= t
    elif reduce:
        det = _residues(det, reduce)
    return _from_kernel(ring, det, den)


# ---------------------------------------------------------------------------
# Ideals and Groebner bases.


@dataclass(frozen=True)
class Ideal:
    ring: PolyRing
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise ValueError("an ideal needs at least one generator")
        for g in self.generators:
            if not isinstance(g, Polynomial) or g.ring != self.ring:
                raise ValueError("all generators must live in the ideal's ring")

    @classmethod
    def of(cls, ring: PolyRing, *gens) -> "Ideal":
        return cls(ring, tuple(g if isinstance(g, Polynomial) else ring.from_string(g)
                               for g in gens))


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis of ideal that keeps its divisors and its stairs."""

    ideal: Ideal
    basis: tuple

    @cached_property
    def _divisors(self) -> list:
        """The basis's `_prep_divisors` triples, prepared once for every
        normal form against it, unless `groebner_basis` handed them in."""
        return _prep_divisors(self.basis)

    @cached_property
    def _stairs(self) -> tuple:
        """The standard monomials, those outside the leading-term ideal, as
        packed keys ascending in the ring order: walked once per basis, and
        read by every degree query and `standard_monomials` from here.
        Empty for the unit ideal, whose quotient is 0; raises if there are
        infinitely many, i.e. the quotient is not zero-dimensional: some
        variable has no pure power among the leading monomials, each of
        which is unpacked once to find out."""
        lms = [lm for lm, _, _ in self._divisors]
        if 0 in lms:
            return ()
        pk = self.ideal.ring._packing
        powers = {e.index(max(e)) for e in map(pk.unpack, lms)
                  if max(e) == sum(e)}
        if len(powers) < self.ideal.ring.nvars:
            raise ValueError("zeros are not isolated")
        guard = pk.guard
        seen, queue = {0}, [0]
        while queue:
            m = queue.pop()
            for unit in pk.units:
                m2 = m + unit
                if m2 in seen or any(not (m2 - lm) & guard for lm in lms):
                    continue
                seen.add(m2)
                queue.append(m2)
        return tuple(sorted(seen))


def _buchberger(ring: PolyRing, gens) -> list:
    """The reduced basis, as `_prep_divisor` triples (lm, lc, tail), by
    Buchberger's algorithm with the Gebauer-Moller update (Gebauer & Moller
    1988) and the sugar strategy (Giovini et al. 1991); the unit ideal's is
    [(0, 1, [])].  Generators, then S-polynomials, join as nonzero
    remainders modulo every joined element and are kept as triples:
    primitive over Z for QQ, monic for GF.  The active set stays a minimal
    basis, and is tail-reduced at the end.  The pairs' lcms are exponent
    tuples and packed keys, and divisibility is tested on the keys' guard
    bits; the polynomials are packed.
    """
    pk, field = ring._packing, ring.field
    guard = pk.guard
    lms, sugar, prepped, active, heap = [], [], [], [], []

    def update(h, s):
        nonlocal heap, active
        t = len(prepped)
        prepped.append(_prep_divisor(field, h)[1])
        key = prepped[t][0]
        lm = pk.unpack(key)
        lms.append(lm)
        sugar.append(s)
        # A queued pair (i, j) goes when lm divides its lcm and that lcm is
        # neither lcm(lms[i], lm) nor lcm(lms[j], lm) (the B criterion).
        heap = [p for p in heap if (p[1] - key) & guard
                or p[4] == tuple(map(max, lms[p[2]], lm))
                or p[4] == tuple(map(max, lms[p[3]], lm))]
        # One new pair per minimal lcm, none for an lcm that some pair
        # reaches with coprime leading monomials; its sugar is the largest
        # degree among the generator multiples it is built from.
        new: dict = {}
        for i in active:
            l = tuple(map(max, lms[i], lm))
            first, coprime = new.get(l, (i, False))
            new[l] = first, coprime or l == tuple(map(add, lms[i], lm))
        # Each lcm of degree below 2^31 packs once, and is tested against
        # the others on guard bits.  One of degree 2^31 or more may not
        # pack: it is tested on exponents, and packed only for a pair.
        keys = {l: pk.pack(l) for l in new if sum(l) < 1 << 31}
        for l, (i, coprime) in new.items():
            if coprime:
                continue
            kl = keys.get(l)
            if kl is None:
                if any(m != l and all(map(le, m, l)) for m in new):
                    continue
                kl = pk.pack(l)
            elif any(k != kl and not (kl - k) & guard for k in keys.values()):
                continue
            s_ij = sum(l) + max(sugar[i] - sum(lms[i]), s - sum(lm))
            heap.append((s_ij, kl, i, t, l))
        heapify(heap)
        active = [i for i in active if (prepped[i][0] - key) & guard] + [t]

    def join(f, s) -> bool:
        """Add the nonzero remainder of the packed terms f, sugar s raised
        by its reductions; True once the ideal is (1)."""
        steps = []
        h = _reduce_terms(ring, f, prepped, steps)[0]
        if h.keys() <= {0}:  # a constant: 0 packs to 0
            return bool(h)
        update(h, max([s] + [sugar[i] + pk.degree(m)
                             for i, m, _, _ in steps]))
        return False

    if any(join(_enter(g)[1], g.total_degree()) for g in gens):
        return [(0, 1, [])]
    if not prepped:
        raise ValueError("generators must not all be zero")
    while heap:
        s, l, i, j, _ = heappop(heap)
        # S = (lc_j/g)*mi*tail_i - (lc_i/g)*mj*tail_j, g = gcd(lc_i, lc_j);
        # over GF both multipliers are 1.
        (lmi, lci, taili), (lmj, lcj, tailj) = prepped[i], prepped[j]
        g = gcd(lci, lcj)
        a, b = lcj // g, lci // g
        f: dict = {}
        _mul_into(f, [(l - lmi, a)], taili, guard)
        _mul_into(f, [(l - lmj, -b)], tailj, guard)
        if join(f, s):
            return [(0, 1, [])]

    # Smallest first: only smaller, already reduced elements divide a tail.
    active.sort(key=lambda i: prepped[i][0])
    reduced = []
    for lm, lc, tail in (prepped[i] for i in active):
        # lc scales with the tail; the content it gains goes again.
        tail, scale = _reduce_terms(ring, dict(tail), reduced)
        lc *= scale
        if lc != 1:
            g = gcd(lc, *tail.values())
            lc, tail = lc // g, {e: c // g for e, c in tail.items()}
        reduced.append((lm, lc, list(tail.items())))
    return reduced


def groebner_basis(ideal: Ideal) -> GroebnerBasis:
    """Unique reduced Groebner basis for the ring's monomial order, each
    monic element `_buchberger`'s triple over the den lc."""
    return _basis_of(ideal, _buchberger(ideal.ring, ideal.generators))


def _basis_of(ideal: Ideal, triples: list) -> GroebnerBasis:
    """The GroebnerBasis of ideal whose reduced basis is given as ascending
    `_buchberger` triples (lm, lc, tail), each element the triple over the
    den lc."""
    ring = ideal.ring
    gb = GroebnerBasis(ideal, tuple(_from_kernel(ring, {lm: lc, **dict(t)}, lc)
                                    for lm, lc, t in triples))
    # Preparing the basis would make these triples again: hand them over
    # where the cached property keeps its value.
    vars(gb)["_divisors"] = triples
    return gb


def _divisors_of(G, ring: PolyRing) -> list:
    """The prepared divisors of a Groebner basis G, or of its elements, in
    ring: a `GroebnerBasis` keeps them for the next call, a list is prepared
    per call, and a list of triples (moved by `_degree_from_basis`) is
    prepared already."""
    polys = G.basis if isinstance(G, GroebnerBasis) else tuple(G)
    if all(type(g) is tuple for g in polys):
        return list(polys)
    # The identity test first: the degree path's divisors share one ring.
    if any(g.ring is not ring and g.ring != ring for g in polys):
        raise ValueError("polynomial ring mismatch")
    return G._divisors if isinstance(G, GroebnerBasis) else \
        _prep_divisors(polys)


def normal_form(f: Polynomial, G) -> Polynomial:
    """Remainder of f modulo a Groebner basis (or any list of divisors).
    A `GroebnerBasis` keeps its prepared divisors for the next call."""
    ring = f.ring
    divisors = _divisors_of(G, ring)
    # den * f reduces to rem with rem = (den * s) * (f mod G).
    den, terms = _enter(f)
    rem, s = _reduce_terms(ring, terms, divisors)
    return _from_kernel(ring, rem, den * s)


# ---------------------------------------------------------------------------
# Colon ideals, saturation, quotient bases.


def _intersect(ring: PolyRing, gens1, gens2) -> list:
    """Generators of the intersection of two ideals, via one tag variable."""
    ext = PolyRing(ring.field, ("@t",) + ring.variables, order="elim1")
    up = list(range(1, ring.nvars + 1))
    t = ext.variable(0)
    mixed = [t * f.map_to(ext, up) for f in gens1 if f]
    mixed += [(ext.one() - t) * g.map_to(ext, up) for g in gens2 if g]
    gb = groebner_basis(Ideal(ext, tuple(mixed)))
    out = []
    for g in gb.basis:
        if all(e[0] == 0 for e in g.terms):
            out.append(Polynomial(ring, {e[1:]: c for e, c in g.terms.items()}))
    return out


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """The colon ideal (I : J) = {f : f*J in I}."""
    if I.ring != J.ring:
        raise ValueError("polynomial ring mismatch")
    if not any(I.generators):
        raise ValueError("generators must not all be zero")
    ring = I.ring
    result = None
    for g in J.generators:
        if not g:
            continue
        q = [exact_quotient(h, g) for h in _intersect(ring, I.generators, [g])]
        result = q if result is None else _intersect(ring, result, q)
    if result is None:
        raise ValueError("colon by the zero ideal")
    if not any(result):
        raise AssertionError("colon ideal collapsed to zero")
    gb = groebner_basis(Ideal(ring, tuple(result)))
    for f in I.generators:
        if normal_form(f, gb):
            raise AssertionError("colon ideal does not contain the original ideal")
    return Ideal(ring, gb.basis)


def saturation(I: Ideal, J: Ideal) -> Ideal:
    """(I : J^infinity), by iterating colon ideals until they stabilize."""
    if I.ring != J.ring:
        raise ValueError("polynomial ring mismatch")
    current = Ideal(I.ring, groebner_basis(I).basis)
    while True:
        nxt = ideal_quotient(current, J)
        if nxt.generators == current.generators:
            return current
        current = nxt


def standard_monomials(G: GroebnerBasis) -> list:
    """Monomials outside the leading-term ideal, ascending in the ring order,
    as one-term polynomials: G's stairs (`GroebnerBasis._stairs`).

    Raises if there are infinitely many, i.e. the quotient is not
    zero-dimensional.
    """
    # Kept in the kernel's form, where one is the int 1 over every field.
    return [_from_kernel(G.ideal.ring, {m: 1}) for m in G._stairs]


# ---------------------------------------------------------------------------
# Resultants.


def resultant_univariate(f: Polynomial, g: Polynomial):
    """Sylvester resultant of two univariate polynomials (field-valued).

    Also accepts a pair of homogeneous binary forms in the same two
    variables, reading their coefficient vectors with the formal degrees;
    this is the classical resultant of binary forms.
    """
    if f.ring != g.ring:
        raise ValueError("polynomial ring mismatch")
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    field = f.ring.field
    used = sorted({i for p in (f, g) for e in p.terms
                   for i, x in enumerate(e) if x})
    if len(used) == 0:
        return field.one()
    if len(used) > 2 or (len(used) == 2 and any(
            len({sum(e) for e in p.terms}) != 1 for p in (f, g))):
        raise ValueError("resultant requires univariate input")
    v = used[0]

    def coeffs(p):
        # The degree in the one variable, or the formal degree of a form.
        deg = p.total_degree()
        out = [field.zero()] * (deg + 1)
        for e, c in p.terms.items():
            out[deg - e[v]] = c  # descending in the first variable
        return out

    # The Sylvester matrix: deg f shifted rows of g over deg g of f.
    fc, gc, zero = coeffs(f), coeffs(g), field.zero()
    m, n = len(fc) - 1, len(gc) - 1
    rows = [[zero] * i + gc + [zero] * (m - 1 - i) for i in range(m)]
    rows += [[zero] * i + fc + [zero] * (n - 1 - i) for i in range(n)]
    return determinant(rows, field)


# ---------------------------------------------------------------------------
# Parsing.  Grammar: integer literals, variable identifiers, + - * ^ and
# parentheses; implicit multiplication is rejected.
#
#   expr   := [+|-] term {(+|-) term}
#   term   := factor {* factor}
#   factor := (+|-) factor | base [^ integer]
#   base   := integer | variable | ( expr )

# A token is an integer literal, an identifier or one other character, which
# is an operator, a parenthesis or refused (_REFUSED).
_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\S")
_REFUSED = re.compile(r"[^\s\dA-Za-z_()+\-*^]")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# Text longer than this may hold an integer literal past the interpreter's
# digit limit (sys.get_int_max_str_digits(), which is never below 640).
_LONG_TEXT = 640

# The tokens that may follow a term; "" is the end of the text.
_AFTER_TERM = frozenset(("+", "-", ")", "^", ""))


def _position(text: str, k: int) -> int:
    """The offset of text's token k, or its length for the end."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == k:
            return m.start()
    return len(text)


def _refuse_characters(text: str) -> None:
    """Raise on the first refused character or over-long integer literal:
    either fails before any grammar error."""
    for m in _TOKEN.finditer(text):
        t = m[0]
        if _REFUSED.match(t):
            raise ParseError(f"unexpected character {t!r}", m.start())
        if t[0].isdecimal():
            try:
                int(t)
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError("integer literal too long",
                                 m.start()) from None


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """The polynomial of text, folded in one pass over its tokens.

    A node is a term dict in the kernel's form, packed monomials and int
    coefficients, or a single nonzero term (e, c): atoms, and products and
    powers of single terms, fold as pairs, and only sums and parentheses
    build dicts.  Each product and power is charged before it is formed
    (MAX_PARSE_PRODUCTS), a position is computed only for an error, and
    the polynomial keeps its kernel terms (den 1), which `_enter` returns.
    The grammar's only constants are integer literals, so over every finite
    field each coefficient lies in GF(p), and its kernel int is its residue:
    literals, sums and products are reduced mod p as they are formed, and
    every term count below is the count of nonzero terms, as over any
    field."""
    if _REFUSED.search(text) or len(text) > _LONG_TEXT:
        _refuse_characters(text)
    toks = _TOKEN.findall(text)
    toks.append("")
    field, pk = ring.field, ring._packing
    p, reduce, guard = field.char, field.reduce, pk.guard
    names = {v: u for v, u in zip(ring.variables, pk.units)
             if _NAME.fullmatch(v)}
    # A coefficient the parser makes over GF(p^k) is one residue mod p.
    gf_words = None if field.kind == "QQ" else (p.bit_length() + 63) // 64
    pos = work = 0

    def fail(message, k):
        raise ParseError(message, _position(text, k))

    def charge(n, at):
        """Count n more weighted term products, for the product at token
        at."""
        nonlocal work
        work += n
        if work > MAX_PARSE_PRODUCTS:
            raise ValueError(f"expanding the polynomial takes more than "
                             f"{MAX_PARSE_PRODUCTS} term products (at "
                             f"position {_position(text, at)})")

    def words(bits):
        """The size of a coefficient of the given bits in 64-bit words, at
        least 1."""
        return gf_words or (bits + 63) // 64 or 1

    def product(a, b, at):
        """The node a * b: len(a) * len(b) term products, each weighted
        1 + wa * wb // 128."""
        if type(a) is dict or type(b) is dict:
            a = a if type(a) is dict else dict((a,))
            b = b if type(b) is dict else dict((b,))
            if len(a) != 1 or len(b) != 1:
                wa, wb = (words(max(map(int.bit_length, x.values()),
                                    default=0)) for x in (a, b))
                charge(len(a) * len(b) * (1 + wa * wb // 128), at)
                return _product(a, b, guard, reduce)
            (a,), (b,) = a.items(), b.items()
        # Two terms: the keys add and the coefficients multiply.  Over GF
        # neither residue is 0 mod p, so neither is their product.
        (ea, ca), (eb, cb) = a, b
        charge(1 + words(ca.bit_length()) * words(cb.bit_length()) // 128,
               at)
        e = ea + eb
        if e & guard:
            raise ValueError(_TOO_LARGE)
        return e, (ca * cb % p if p else ca * cb)

    def exponent():
        """The checked literal after '^', and its token."""
        nonlocal pos
        at = pos + 1
        t = toks[at]
        pos += 2
        if not t[:1].isdecimal():
            fail("exponent must be an integer literal", at)
        n = int(t)
        if n > MAX_EXPONENT:
            fail(f"exponent {n} exceeds {MAX_EXPONENT}", at)
        return n, at

    def factor(depth):
        nonlocal pos
        t = toks[pos]
        pos += 1
        unit = names.get(t)
        if unit is not None:
            if toks[pos] != "^":
                return unit, 1
            # x^n: charged as its squaring chain, a product of coefficients
            # 1 per step; no field of the key exceeds n, so none overflows.
            n, at = exponent()
            if n > 1:
                charge((n.bit_length() + n.bit_count() - 2) *
                       (1 + words(1) ** 2 // 128), at)
            return unit * n, 1
        if t[:1].isdecimal():
            c = int(t) % p if p else int(t)
            node = (0, c) if c else {}
        elif t == "(" or t == "-" or t == "+":
            if depth >= MAX_NESTING:
                fail(f"nesting deeper than {MAX_NESTING} levels of "
                     f"parentheses and signs", pos - 1)
            if t != "(":
                node = factor(depth + 1)
                if t == "+":
                    return node
                return (node[0], -node[1]) if type(node) is tuple else \
                    _negated(node)
            node = expr(depth + 1)
            if toks[pos] != ")":
                fail("expected ')'", pos)
            pos += 1
        elif _NAME.fullmatch(t):
            fail(f"unknown variable {t!r}", pos - 1)
        else:
            fail("expected a number, variable or '('", pos - 1)
        if toks[pos] == "^":
            n, at = exponent()
            node = _power(node, n, lambda a, b: product(a, b, at), {0: 1})
        return node

    def term(depth):
        nonlocal pos
        node = factor(depth)
        while toks[pos] == "*":
            at = pos
            pos += 1
            node = product(node, factor(depth), at)
        if toks[pos] not in _AFTER_TERM:
            fail("implicit multiplication is not allowed", pos)
        return node

    def expr(depth):
        """A sum, folded into one terms dict."""
        nonlocal pos
        terms = {}
        while True:
            t = toks[pos]
            if t == "+" or t == "-":
                pos += 1
            node = term(depth)
            if type(node) is dict:
                _add_into(terms, _negated(node) if t == "-" else node)
            else:
                e, c = node
                if t == "-":
                    c = -c
                v = terms.get(e, 0) + c
                if v:
                    terms[e] = v
                else:
                    del terms[e]
            t = toks[pos]
            if t != "+" and t != "-":
                return _residues(terms, reduce) if reduce else terms

    node = expr(0)
    if toks[pos]:
        fail("unexpected trailing input", pos)
    return _from_kernel(ring, node)
