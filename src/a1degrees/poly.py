"""Multivariate polynomials over Q and GF(p^k) with Groebner machinery.

The public monomial order is graded reverse lexicographic over the ring's
variable order.  Ideal intersections (and hence colon ideals) go through a
single auxiliary variable with a block order, which stays internal: rings
built by users are always grevlex.

Coefficients.  Public polynomials over QQ hold `Fraction`s, and over GF
field elements.  The kernel decides the domain once, when a polynomial
enters it: a dividend becomes integral terms and a denominator
(`Polynomial.clear_denominators`), a divisor a `_prep_divisor` triple,
and a result turns back into public scalars in `_public`.  A QQ divisor is
its primitive integer multiple, and division is pseudo-division (Knuth,
TAOCP vol. 2, 4.6.1), multiplying the work by a running integer scale
instead of dividing by leading coefficients.  A GF divisor is made monic
once, so nothing scales.  The same heap loop serves both domains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, ge, mul, sub

from .fields import FieldDesc, FFElement

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

# The most term products, len(a) * len(b) summed over every product and
# power in one polynomial, the parser forms; it is checked before each
# multiplication.  The exponent cap alone leaves the expansion unbounded:
# on a 2-core Intel Xeon VM with Python 3.11 over QQ, (x+1)^1000 forms about
# 416,000 products (0.5 s), (x+y+z+1)^32 968,000 (0.8 s), (x+y+z+1)^40
# 2.0 million (1.7 s), (x+y+z+1)^48 7.3 million (5.9 s) and (x+y+z+1)^64
# 44 million (46 s).
MAX_PARSE_PRODUCTS = 10 ** 6


class ParseError(ValueError):
    """Raised on malformed polynomial / matrix text, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Order keys are flat int tuples in which the smaller key is the larger
# monomial: min() finds the leading term, a heap pops terms in descending
# order, and negating every entry reverses the order.


def _grevlex_key(e):
    return (-sum(e),) + e[::-1]


def _elim1_key(e):
    # Block order eliminating the first variable: degree in it dominates.
    return (-e[0], -sum(e[1:])) + e[:0:-1]


_ORDER_KEYS = {"grevlex": _grevlex_key, "elim1": _elim1_key}


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
        if self.order not in _ORDER_KEYS:
            raise ValueError(f"unknown monomial order {self.order!r}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def key(self):
        return _ORDER_KEYS[self.order]

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
    """Immutable sparse polynomial: a map from exponent vectors to coefficients."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

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

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def leading_monomial(self):
        return min(self.terms, key=self.ring.key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def clear_denominators(self):
        """(d, d * self), d the least positive integer that makes every
        coefficient integral: over QQ the lcm of their denominators, and the
        multiple holds ints; over GF d is 1."""
        if self.ring.field.kind != "QQ":
            return 1, self
        d = lcm(*[c.denominator for c in self.terms.values()])
        return d, Polynomial(self.ring, {e: c.numerator * (d // c.denominator)
                                         for e, c in self.terms.items()})

    def support(self) -> set[int]:
        """Indices of variables actually occurring."""
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

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
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        terms = dict(self.terms)
        _add_into(terms, self._coerce_other(other).terms, negate=True)
        return Polynomial(self.ring, terms)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            # An int scales QQ terms as it is: integer polynomials stay so.
            c = other if other.__class__ is int and \
                self.ring.field.kind == "QQ" else self.ring.field.coerce(other)
            if not c:
                return self.ring.zero()
            return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})
        if other.ring != self.ring:
            raise ValueError("polynomial ring mismatch")
        out: dict = {}
        _mul_into(out, self.terms, other.terms)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, mul)

    def derivative(self, i: int) -> "Polynomial":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                v = e[i] * c
                if v:
                    out[tuple(e2)] = v
        return Polynomial(self.ring, out)

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
            e2 = tuple(e2)
            v = out.get(e2)
            v = c if v is None else v + c
            if v:
                out[e2] = v
            elif e2 in out:
                del out[e2]
        return Polynomial(target, out)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FFElement)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for e in sorted(self.terms, key=self.ring.key):
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


def _reduce_terms(ring, fterms: dict, divisors, quotients=None,
                  scale=None) -> dict:
    """Remainder of multivariate division by `_prep_divisors` triples.

    Terms leave a heap in descending order.  Each monomial is pushed once,
    when it enters the work set; one that cancels keeps its entry with a
    zero coefficient and is skipped when popped.  This is sound because a
    reduction step only adds monomials below the one it removes.

    u is the divisor's leading coefficient, an int: 1 over GF, where
    every divisor is monic.  A term c that a divisor with u != 1 reduces
    is cleared by pseudo-division: with g = gcd(c, u), the work, the
    remainder and the quotients so far are multiplied by u // g, and
    (c // g) * shift * divisor is subtracted.  If those factors multiply to
    s, then s * fterms = rem + sum(q_i * divisor_i), and s is multiplied
    into scale[0].  Without `scale` the caller wants rem only up to a
    constant and the quotients only for their monomials, so the quotients
    are not rescaled.
    """
    key = ring.key
    work = dict(fterms)
    heap = [(key(e), e) for e in work]
    heapify(heap)
    rem: dict = {}
    scaled = (work, rem) if scale is None else (work, rem, *(quotients or ()))
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        for di, (lm, u, tail) in enumerate(divisors):
            if all(map(ge, m, lm)):
                shift = tuple(map(sub, m, lm))
                if u != 1:
                    g = gcd(c, u)
                    c //= g
                    if g != u:
                        a = u // g
                        for d in scaled:
                            for e, v in d.items():
                                d[e] = v * a
                        if scale is not None:
                            scale[0] *= a
                neg = -c
                for e2, c2 in tail:
                    e = tuple(map(add, shift, e2))
                    v = work.get(e)
                    if v is None:
                        work[e] = neg * c2
                        heappush(heap, (key(e), e))
                    else:
                        work[e] = v + neg * c2
                if quotients is not None:
                    quotients[di][shift] = c
                break
        else:
            rem[m] = c
    return rem


def _prep_divisor(g):
    """(k, (lm, u, tail)) for a nonzero divisor g, tail a list of (e, c):
    the triple's divisor is k * g.

    Over QQ it is g's primitive integer multiple, and u its leading
    coefficient, > 0.  Over GF it is g made monic, k the inverse of g's
    leading coefficient, taken once here, and u the int 1.
    """
    lm = g.leading_monomial()
    if g.ring.field.kind == "QQ":
        den, g = g.clear_denominators()
        content = gcd(*g.terms.values())
        if g.terms[lm] < 0:
            content = -content
        k = Fraction(den, content)
        terms = {e: c // content for e, c in g.terms.items()}
        u = terms[lm]
    else:
        k, terms, u = 1, g.terms, 1
        if terms[lm] != 1:
            k = terms[lm].inverse()
            terms = {e: c * k for e, c in terms.items()}
    return k, (lm, u, [(e, c) for e, c in terms.items() if e != lm])


def _prep_divisors(polys):
    """The `_prep_divisor` triples of the nonzero divisors."""
    return [_prep_divisor(g)[1] for g in polys if g]


def _public(field, terms: dict, s) -> dict:
    """Kernel terms divided by the int s, as public scalars: Fractions over
    QQ.  Over GF the terms are field elements already, and s is 1."""
    if field.kind != "QQ":
        return terms
    return {e: Fraction(c, s) for e, c in terms.items()}


def exact_quotient(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when the division is exact; raises otherwise."""
    if g.ring != f.ring:
        raise ValueError("polynomial ring mismatch")
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    if not f:
        return ring.zero()
    # scale * f = q * (k * g), the divisor's triple, so f / g = q * k / scale.
    k, divisor = _prep_divisor(g)
    den, f = f.clear_denominators()
    quotients, scale = [{}], [den]
    if _reduce_terms(ring, f.terms, [divisor], quotients, scale):
        raise ValueError("division is not exact")
    return Polynomial(ring, _public(ring.field, {
        e: c * k for e, c in quotients[0].items()}, scale[0]))


def _add_into(out: dict, terms: dict, negate: bool = False) -> None:
    """Add (or subtract) the term dict terms into out."""
    for e, c in terms.items():
        v = out.get(e)
        if negate:
            v = -c if v is None else v - c
        else:
            v = c if v is None else v + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]


def _power(f: Polynomial, n: int, product) -> Polynomial:
    """f ** n by repeated squaring, each product of two polynomials formed
    by ``product``."""
    if n < 0:
        raise ValueError("negative polynomial power")
    if len(f.terms) == 1:
        ((e, c),) = f.terms.items()
        return Polynomial(f.ring, {tuple([x * n for x in e]): c ** n})
    # Seeded by the first factor, not by one(): integer terms stay so.
    result, base = None, f
    while n:
        if n & 1:
            result = base if result is None else product(result, base)
        n >>= 1
        if n:
            base = product(base, base)
    return f.ring.one() if result is None else result


def _mul_into(out: dict, a: dict, b: dict) -> None:
    """Add the product of the term dicts a and b into out."""
    if len(a) > len(b):
        a, b = b, a
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            v = out.get(e)
            v = c1 * c2 if v is None else v + c1 * c2
            if v:
                out[e] = v
            elif e in out:
                del out[e]


def determinant(rows, ring):
    """Determinant of a square matrix over a PolyRing or a FieldDesc.

    No polynomial is ever divided.  First, while some row holds only field
    constants, its first nonzero entry is the pivot: column operations by
    field scalars clear the rest of the row, and the determinant is
    +-pivot times the minor without that row and column (a zero constant
    row gives 0).  Over a FieldDesc every row is constant, so this is
    Gaussian elimination.  Second, the k x k block of nonconstant rows
    left is expanded by minors from the bottom row up, each minor of the
    last m rows memoized by its column subset: k * 2^(k-1) products of one
    entry and one minor.  For a Bezoutian k counts the nonlinear f_i, and
    2^k <= prod deg f_i, the size of the Gram matrix.  Over QQ the minors
    and the scale start from the int 1, so a matrix of integer polynomials
    without constant rows has an integer determinant.
    """
    polynomial = isinstance(ring, PolyRing)
    field = ring.field if polynomial else ring
    zero, one = field.zero(), field.one()
    seed = 1 if polynomial and field.kind == "QQ" else one

    def scalar(x):
        """The entry's field value, or None if it is not a constant."""
        if not polynomial:
            return x
        if not x.terms:
            return zero
        if len(x.terms) == 1:
            ((e, c),) = x.terms.items()
            if not any(e):
                return c
        return None

    a = [list(row) for row in rows]
    scale = seed
    while a:
        for r, row in enumerate(a):
            values = [scalar(x) for x in row]
            if None not in values:
                break
        else:
            break
        c = next((j for j, v in enumerate(values) if v), None)
        if c is None:
            return ring.zero()
        pivot = values[c]
        inv = one / pivot
        column = [row[c] for row in a]
        for j, v in enumerate(values):
            if v and j != c:
                s = v * inv
                for i, x in enumerate(column):
                    if i != r and x:
                        a[i][j] = a[i][j] - x * s
        scale = scale * pivot if (r + c) % 2 == 0 else -(scale * pivot)
        del a[r]
        for row in a:
            del row[c]
    if not polynomial:
        return scale
    # minors[S]: the minor of the last m rows on the columns in bitmask S.
    minors = {0: {(0,) * ring.nvars: seed}}
    k = len(a)
    for m in range(1, k + 1):
        row = [(x.terms, (-x).terms) for x in a[k - m]]
        grown: dict = {}
        for s, minor in minors.items():
            if not minor:
                continue
            for j, (entry, negated) in enumerate(row):
                bit = 1 << j
                if s & bit or not entry:
                    continue
                # Column j's sign is the parity of its rank in s | bit.
                odd = bin(s & (bit - 1)).count("1") & 1
                _mul_into(grown.setdefault(s | bit, {}),
                          negated if odd else entry, minor)
        minors = grown
    return Polynomial(ring, minors.get((1 << k) - 1, {})) * scale


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
    ideal: Ideal
    basis: tuple
    order: str


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _shifted(tail, m, a) -> dict:
    """The term dict of a * x^m * tail."""
    if a == 1:
        return {tuple(map(add, m, e)): c for e, c in tail}
    return {tuple(map(add, m, e)): c * a for e, c in tail}


def _buchberger(ring: PolyRing, gens) -> list:
    """The reduced basis, by Buchberger's algorithm with the Gebauer-Moller
    update (Gebauer & Moller 1988) and the sugar strategy (Giovini et al.
    1991).  Generators, then S-polynomials, join as nonzero remainders
    modulo every joined element and are kept as `_prep_divisors` triples:
    primitive over Z for QQ, monic for GF.  The active set stays a minimal
    basis, and is tail-reduced at the end, then made monic.
    """
    key = ring.key
    lms, sugar, prepped, active, heap = [], [], [], [], []

    def update(h, s):
        nonlocal heap, active
        t, lm = len(prepped), h.leading_monomial()
        lms.append(lm)
        sugar.append(s)
        prepped.extend(_prep_divisors([h]))
        # A queued pair (i, j) goes when lm divides its lcm and that lcm is
        # neither lcm(lms[i], lm) nor lcm(lms[j], lm) (the B criterion).
        heap = [p for p in heap if not (
            _divides(lm, p[4]) and p[4] != tuple(map(max, lms[p[2]], lm))
            and p[4] != tuple(map(max, lms[p[3]], lm)))]
        # One new pair per minimal lcm, none for an lcm that some pair
        # reaches with coprime leading monomials; its sugar is the largest
        # degree among the generator multiples it is built from.
        new: dict = {}
        for i in active:
            l = tuple(map(max, lms[i], lm))
            first, coprime = new.get(l, (i, False))
            new[l] = first, coprime or l == tuple(map(add, lms[i], lm))
        for l, (i, coprime) in new.items():
            if not coprime and not any(m != l and _divides(m, l) for m in new):
                s_ij = sum(l) + max(sugar[i] - sum(lms[i]), s - sum(lm))
                heap.append((s_ij, tuple([-x for x in key(l)]), i, t, l))
        heapify(heap)
        active = [i for i in active if not _divides(lm, lms[i])] + [t]

    def join(f, s) -> bool:
        """Add the nonzero remainder of the term dict f, sugar s raised by
        its reductions; True once the ideal is (1)."""
        quotients = [{} for _ in prepped]
        h = Polynomial(ring, _reduce_terms(ring, f, prepped, quotients))
        if h.is_constant():
            return bool(h)
        update(h, max([s] + [sugar[k] + sum(m) for k, q in enumerate(quotients)
                             for m in q]))
        return False

    if any(join(g.clear_denominators()[1].terms,
                max(map(sum, g.terms), default=0)) for g in gens):
        return [ring.one()]
    if not prepped:
        raise ValueError("generators must not all be zero")
    while heap:
        s, _, i, j, l = heappop(heap)
        # S = (lc_j/g)*mi*tail_i - (lc_i/g)*mj*tail_j, g = gcd(lc_i, lc_j).
        (lmi, lci, taili), (lmj, lcj, tailj) = prepped[i], prepped[j]
        g = gcd(lci, lcj)
        f = _shifted(taili, tuple(map(sub, l, lmi)), lcj // g)
        _add_into(f, _shifted(tailj, tuple(map(sub, l, lmj)), lci // g),
                  negate=True)
        if join(f, s):
            return [ring.one()]

    # Smallest first: only smaller, already reduced elements divide a tail.
    active.sort(key=lambda i: key(lms[i]), reverse=True)
    reduced = []
    for lm, lc, tail in (prepped[i] for i in active):
        # lc scales with the tail; the content it gains goes again.
        scale = [lc]
        tail = _reduce_terms(ring, dict(tail), reduced, scale=scale)
        lc = scale[0]
        if lc != 1:
            g = gcd(lc, *tail.values())
            lc, tail = lc // g, {e: c // g for e, c in tail.items()}
        reduced.append((lm, lc, list(tail.items())))
    one = ring.field.one()
    return [Polynomial(ring, {lm: one, **_public(ring.field, dict(t), lc)})
            for lm, lc, t in reduced]


def groebner_basis(ideal: Ideal) -> GroebnerBasis:
    """Unique reduced Groebner basis for the ring's monomial order."""
    basis = _buchberger(ideal.ring, ideal.generators)
    return GroebnerBasis(ideal, tuple(basis), ideal.ring.order)


def normal_form(f: Polynomial, G) -> Polynomial:
    """Remainder of f modulo a Groebner basis (or any list of divisors)."""
    ring = f.ring
    polys = G.basis if isinstance(G, GroebnerBasis) else tuple(G)
    # The identity test first: the degree path's divisors share one ring.
    if any(g.ring is not ring and g.ring != ring for g in polys):
        raise ValueError("polynomial ring mismatch")
    # den * f reduces to rem with rem = (den * s) * (f mod G).
    den, f = f.clear_denominators()
    scale = [den]
    rem = _reduce_terms(ring, f.terms, _prep_divisors(polys), scale=scale)
    return Polynomial(ring, _public(ring.field, rem, scale[0]))


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
    gb = groebner_basis(Ideal(ring, tuple(result))).basis
    for f in I.generators:
        if normal_form(f, gb):
            raise AssertionError("colon ideal does not contain the original ideal")
    return Ideal(ring, gb)


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
    """Monomials outside the leading-term ideal, ascending in the ring order.

    Raises if there are infinitely many, i.e. the quotient is not
    zero-dimensional.
    """
    ring = G.ideal.ring
    if len(G.basis) == 1 and G.basis[0].is_constant():
        return []
    lms = [g.leading_monomial() for g in G.basis]
    for i in range(ring.nvars):
        if not any(all(x == 0 for j, x in enumerate(lm) if j != i) and lm[i] > 0
                   for lm in lms):
            raise ValueError("zeros are not isolated")
    origin = (0,) * ring.nvars
    seen = {origin}
    queue = [origin]
    while queue:
        m = queue.pop()
        for i in range(ring.nvars):
            m2 = m[:i] + (m[i] + 1,) + m[i + 1:]
            if m2 in seen or any(_divides(lm, m2) for lm in lms):
                continue
            seen.add(m2)
            queue.append(m2)
    one = ring.field.one()
    return [Polynomial(ring, {e: one})
            for e in sorted(seen, key=ring.key, reverse=True)]


# ---------------------------------------------------------------------------
# Resultants.


def _sylvester_resultant(fdesc, gdesc, field):
    m, n = len(fdesc) - 1, len(gdesc) - 1
    if m == 0 and n == 0:
        return field.one()
    size = m + n
    rows = []
    for i in range(m):
        rows.append([field.zero()] * i + gdesc + [field.zero()] * (size - n - 1 - i))
    for i in range(n):
        rows.append([field.zero()] * i + fdesc + [field.zero()] * (size - m - 1 - i))
    return determinant(rows, field)


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
    used = sorted(f.support() | g.support())
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

    return _sylvester_resultant(coeffs(f), coeffs(g), field)


# ---------------------------------------------------------------------------
# Parsing.  Grammar: integer literals, variable identifiers, + - * ^ and
# parentheses; implicit multiplication is rejected.

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^])|(\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start())
        if m.group(1):
            try:
                value = int(m.group(1))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError("integer literal too long", m.start()) from None
            tokens.append(("int", value, m.start()))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start()))
        else:
            tokens.append(("op", m.group(3), m.start()))
    tokens.append(("end", None, len(text)))
    return tokens


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Over QQ the coefficients fold as ints and become Fractions once, at
    the end; over GF they are field elements from the start."""
    tokens = _tokenize(text)
    pos = work = 0
    qq = ring.field.kind == "QQ"
    origin = (0,) * ring.nvars

    def scalar(val):
        return val if qq else ring.field.coerce(val)

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def product(a, b, at):
        nonlocal work
        work += len(a.terms) * len(b.terms)
        if work > MAX_PARSE_PRODUCTS:
            raise ValueError(f"expanding the polynomial takes more than "
                             f"{MAX_PARSE_PRODUCTS} term products (at "
                             f"position {at})")
        return a * b

    def parse_expr():
        kind, val, at = peek()
        negate = False
        if kind == "op" and val in "+-":
            advance()
            negate = val == "-"
        node = parse_term()
        # The sum folds into one terms dict, not a copy per summand.
        terms = {e: -c for e, c in node.terms.items()} if negate else \
            dict(node.terms)
        while True:
            kind, val, at = peek()
            if kind == "op" and val in "+-":
                advance()
                _add_into(terms, parse_term().terms, negate=val == "-")
            else:
                return Polynomial(ring, terms)

    def parse_term():
        node = parse_factor()
        while True:
            kind, val, at = peek()
            if kind == "op" and val == "*":
                advance()
                node = product(node, parse_factor(), at)
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                raise ParseError("implicit multiplication is not allowed", at)
            else:
                return node

    def parse_factor():
        kind, val, at = peek()
        if kind == "op" and val in "+-":
            advance()
            node = parse_factor()
            return -node if val == "-" else node
        node = parse_base()
        kind, val, at = peek()
        if kind == "op" and val == "^":
            advance()
            kind, exp, at = advance()
            if kind != "int":
                raise ParseError("exponent must be an integer literal", at)
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} exceeds {MAX_EXPONENT}", at)
            node = _power(node, exp, lambda a, b: product(a, b, at))
        return node

    def parse_base():
        kind, val, at = advance()
        if kind == "int":
            c = scalar(val)
            return Polynomial(ring, {origin: c} if c else {})
        if kind == "name":
            try:
                i = ring.variables.index(val)
            except ValueError:
                raise ParseError(f"unknown variable {val!r}", at) from None
            return Polynomial(ring, {origin[:i] + (1,) + origin[i + 1:]:
                                     scalar(1)})
        if kind == "op" and val == "(":
            node = parse_expr()
            kind, val, at = advance()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", at)
            return node
        raise ParseError("expected a number, variable or '('", at)

    node = parse_expr()
    kind, val, at = peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", at)
    if qq:
        return Polynomial(ring, {e: Fraction(c) for e, c in node.terms.items()})
    return node
