"""Exact scalar arithmetic over Q and finite fields of odd characteristic.

Rationals are plain ``fractions.Fraction`` values.  Finite fields GF(p^k)
are described by a :class:`FieldDesc` carrying a monic irreducible modulus
over Z/p.  An element has one format, the descriptor's reduced kernel int
(`FieldDesc.reduce`, `invert`): an :class:`FFElement` holds it, and the
polynomial kernel and the Gram elimination compute on it.  The real and
complex "fields" are tags on exact rational data: no floating point is
used anywhere in this package.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "FieldDesc",
    "FFElement",
    "QQ",
    "RR",
    "CC",
    "is_prime",
    "factorize",
    "squarefree_part",
    "padic_valuation",
    "legendre_symbol",
    "is_square",
    "gf_construct",
    "is_padic_square",
    "odd_prime_support",
    "fraction_sqrt",
]

_TRIAL_LIMIT = 1 << 10
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Brent rho's total work per factorize call, in squarings mod a number below
# 2^128.  A squaring mod an n of L limbs of 128 bits is charged (L^2 + 3)/4
# of those, about its cost (a fixed interpreter overhead plus schoolbook
# multiplication and reduction, quadratic in L), and the last round is cut
# to what is left, so a refusal spends the whole budget in about the same
# time whatever n's size: on a 2-core Intel Xeon VM with Python 3.11, in
# 1.1-1.5 s on a 127-bit n and 0.7-1.2 s on 199 to 3071 bits.  Products of
# two primes near 10^12 factor within it.
_RHO_BUDGET = 1 << 21


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """A nontrivial factor of composite odd n and the budget left over, by
    Brent's cycle variant; each round of r squarings is charged 2r times
    a squaring's cost (see _RHO_BUDGET), and the round that would overrun
    the budget is shortened to what is left, so a refusal spends it all."""
    limbs = (n.bit_length() + 127) >> 7
    weight = limbs * limbs + 3  # four times a squaring's cost
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        while g == 1:
            r = min(r, 2 * budget // weight)
            if not r:
                raise ValueError("square class too large to factor")
            budget -= r * weight // 2
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def factorize(n: int) -> dict[int, int]:
    """Factor |n|: trial division below 2^10, then Miller-Rabin and Brent's
    variant of Pollard rho on what is left.  Keys ascend.

    Rho's work is capped at _RHO_BUDGET, and a cofactor of more than
    _CHAR_BITS_CAP bits is refused before its Miller-Rabin test; past either
    a ValueError says the square class is too large to factor.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    out: dict[int, int] = {}
    for p in itertools.chain((2,), range(3, _TRIAL_LIMIT, 2)):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    budget = _RHO_BUDGET
    while stack:
        m = stack.pop()
        if m.bit_length() > _CHAR_BITS_CAP:
            raise ValueError("square class too large to factor")
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, budget = _pollard_rho(m, budget)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def squarefree_part(r) -> int:
    """The unique squarefree integer s with r = s * t^2, t rational."""
    return _squarefree_split(r)[0]


def _squarefree_split(r) -> tuple[int, tuple[int, ...]]:
    """(s, primes): squarefree_part(r) and the primes dividing it, ascending,
    from one factorization."""
    m = _class_integer(r)
    if m == 0:
        raise ValueError("zero has no square class")
    primes = tuple(p for p, e in factorize(m).items() if e % 2)
    s = -1 if m < 0 else 1
    for p in primes:
        s *= p
    return s, primes


def _check_prime(p: int) -> None:
    """Refuse p unless it is a prime of at most _CHAR_BITS_CAP bits.  The
    size is checked first: Miller-Rabin on a larger p takes seconds."""
    if p.bit_length() > _CHAR_BITS_CAP:
        raise ValueError(f"p has {p.bit_length()} bits, more than "
                         f"{_CHAR_BITS_CAP}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def padic_valuation(r, p: int) -> int:
    """nu_p of a nonzero rational."""
    _check_prime(p)
    r = Fraction(r)
    if r == 0:
        raise ValueError("zero has no p-adic valuation")
    return _split_prime(r.numerator, p)[0] - _split_prime(r.denominator, p)[0]


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, via Euler's criterion."""
    _check_prime(p)
    if p == 2:
        raise ValueError("2 is not an odd prime")
    t = pow(a % p, (p - 1) // 2, p)
    if t == 0:
        return 0
    return 1 if t == 1 else -1


def fraction_sqrt(r) -> Fraction:
    """Exact square root of a perfect-square nonnegative rational."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("negative rational has no rational square root")
    num, den = isqrt(r.numerator), isqrt(r.denominator)
    if num * num != r.numerator or den * den != r.denominator:
        raise ValueError(f"{r} is not a perfect square")
    return Fraction(num, den)


def _class_integer(r) -> int:
    """The integer n*d, in the square class of the rational r = n/d."""
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    return r.numerator * r.denominator


def _split_prime(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u and p not dividing u, for a nonzero integer n.

    Split at p, the integer `_class_integer(r)` gives the parity of nu_p(r)
    and the unit residue (mod p, or mod 8 at p = 2) of the rational r's
    square class: all that Q_p-square tests and Hilbert symbols read.
    """
    v = 0
    q, r = divmod(n, p)
    while not r:
        n, v = q, v + 1
        q, r = divmod(n, p)
    return v, n


def is_padic_square(r, p: int) -> bool:
    """Whether a nonzero rational is a square in Q_p."""
    n = _class_integer(r)
    if n == 0:
        raise ValueError("zero has no square class")
    _check_prime(p)
    return _padic_square(n, p)


def _padic_square(n: int, p: int) -> bool:
    """Whether the nonzero integer n is a square in Q_p, for a prime p,
    unchecked."""
    v, u = _split_prime(n, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


def odd_prime_support(r) -> list[int]:
    """Odd primes dividing the square class of a nonzero rational."""
    return [p for p in _squarefree_split(r)[1] if p != 2]


# ---------------------------------------------------------------------------
# Residues mod a monic ``mod`` of degree k over Z/p, the elements of GF(p^k),
# as kernel ints: a = sum a_i t^i, 0 <= a_i < p, is the int sum a_i 2^(w i),
# its coefficients Kronecker-packed in slots of w bits (see FieldDesc.reduce).


def _slot_width(p: int, k: int) -> int:
    """w, the bits of one slot of a kernel int of GF(p^k)."""
    return 2 * p.bit_length() + k.bit_length() + 64


def _fold(c: list, mod: tuple, p: int, w: int) -> int:
    """The reduced kernel int of the integer coefficient list ``c`` (low to
    high, any length; it is overwritten): t^i for i >= k folds down with the
    monic modulus, and the entries are reduced mod p and packed."""
    k = len(mod) - 1
    c += [0] * (k - len(c))
    for i in range(len(c) - 1, k - 1, -1):
        ci = c[i] % p
        if ci:
            for j in range(k):
                c[i - k + j] -= ci * mod[j]
    v = 0
    for i in range(k - 1, -1, -1):
        v = v << w | c[i] % p
    return v


def _slots(c: int, w: int, k: int) -> tuple:
    """The k coefficients of the reduced kernel int c, low to high."""
    mask = (1 << w) - 1
    return tuple([c >> w * i & mask for i in range(k)])


def _reducer(p: int, mod: tuple, w: int):
    """The function taking a kernel int of GF(p^k) to the reduced int of its
    element: see FieldDesc.reduce."""
    if len(mod) == 2:
        return p.__rmod__
    half, mask = 1 << (w - 1), (1 << w) - 1
    low = -half

    def reduce(c: int) -> int:
        if low < c < half:
            return c % p
        slots = []
        while c:
            slots.append(((c + half) & mask) - half)
            c = (c + half) >> w
        return _fold(slots, mod, p, w)

    return reduce


def _power(x, n: int, mul, one):
    """x^n, n >= 0: the package's one square-and-multiply, each product
    mul(a, b), from the first factor, so x^0 is ``one``, nothing is
    multiplied by it, and what bounds ``mul`` bounds every power."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if result is None else result


def _tuple_inverse(a: tuple, mod: tuple, p: int) -> tuple | None:
    """a^-1 for a coefficient tuple a, or None when a is zero or shares a
    factor with ``mod``: one extended Euclid on (mod, a)."""
    k = len(mod) - 1
    # s0 * a = r0 and s1 * a = r1 mod ``mod``, the r trimmed lists.  While
    # deg r1 > 0 each new s has degree k - deg r1 < k, so no s needs a fold.
    r0, s0 = list(mod), [0] * k
    r1, s1 = list(a), [1] + [0] * (k - 1)
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        if len(r1) < 2:
            break
        # r0 -= c * t^d * r1 until deg r0 < deg r1, and the same on the s.
        n, lead = len(r1), pow(r1[-1], -1, p)
        for d in range(len(r0) - n, -1, -1):
            c = r0[d + n - 1] * lead % p
            if c:
                for j in range(n):
                    r0[d + j] = (r0[d + j] - c * r1[j]) % p
                for j in range(k - d):
                    s0[d + j] = (s0[d + j] - c * s1[j]) % p
        r0, r1, s0, s1 = r1, r0, s1, s0
    if not r1:
        return None
    c = pow(r1[0], -1, p)
    return tuple([x * c % p for x in s1])


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin's test: a monic f of degree k is irreducible over Z/p iff
    x^(p^k) = x mod f and x^(p^(k/r)) - x is prime to f for each prime r | k.
    The powers are kernel ints modulo f."""
    k = len(f) - 1
    if k < 2:
        return k == 1
    w = _slot_width(p, k)
    reduce = _reducer(p, f, w)
    x = 1 << w
    frob = [x]  # frob[j] = x^(p^j) mod f
    for _ in range(k):
        frob.append(_power(frob[-1], p, lambda a, b: reduce(a * b), 1))
    if frob[k] != x:
        return False
    for r in range(2, k + 1):
        if k % r or not is_prime(r):
            continue
        diff = _slots(reduce(frob[k // r] - x), w, k)
        if _tuple_inverse(diff, f, p) is None:
            return False
    return True


# The Rabin tests' total work per field, in units of k^3 * b * ceil(b / 64)
# for a degree-k modulus over Z/p, p of b bits: a test takes k Frobenius
# powers of about b squarings mod the modulus, each some k^2 products of
# residues mod p, and past 64 bits a product and its reduction cost about
# ceil(b / 64) times more.  The powers are kernel ints, one product and one
# reducer call each.  On a 2-core Intel Xeon VM with Python 3.11 a unit
# took 0.1-0.2 us in the search of FieldDesc and 0.1-1.3 us, the more the
# larger p, for a random modulus: a search stops within about 1 s, and the
# test of a given modulus takes at most about 3 s (2.1-2.6 s for a random
# cubic over Z/(2^2203 - 1), 1.0-1.4 s for one of degree 32 over
# Z/(2^61 - 1)).  GF(3^32) (18 candidates, 1.2M units, 0.13 s), GF(10007^16)
# (0.3 s) and GF((2^127 - 1)^16) (0.4 s) fit; GF(3^40) (4.9M units) and
# GF(101^24), whose search tries 210 candidates, do not.
_RABIN_BUDGET = 1 << 21


# The largest prime, in bits, that _check_prime lets a p-adic function or
# FieldDesc take as a GF(p^k)'s characteristic, and the largest cofactor
# factorize tests; it is checked before any full primality test.  With
# Python 3.11 on a 2-core Intel Xeon VM is_prime took 0.01 s on 2^521 - 1,
# 0.43 s on 2^2203 - 1, 1.07 s on 2^3072 - 47 and 3.2 s on 2^4423 - 1.  The
# CLI tests p twice, so at the cap a GF(p) spec is decided within about 2 s,
# like a modulus search.
_CHAR_BITS_CAP = 3072


def _rabin_cost(p: int, k: int) -> int:
    """The work of one Rabin test, in the units of _RABIN_BUDGET."""
    b = p.bit_length()
    return k ** 3 * b * -(-b // 64)


def _coefficient_vectors(p: int, k: int, first: int = 0):
    """The vectors in (Z/p)^k whose entry 0 is at least ``first``, lazily and
    in lexicographic order: the digits of consecutive integers in base p."""
    for i in range(first * p ** k // p, p ** k):
        v = [0] * k
        for j in range(k - 1, -1, -1):
            i, v[j] = divmod(i, p)
        yield tuple(v)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDesc:
    """Tag for one of the supported coefficient fields.

    kind is "QQ", "RR", "CC" or "GF".  For GF the characteristic p (odd),
    extension degree k and a monic irreducible modulus (coefficients
    low-to-high, length k+1) are carried along.  This is where a GF(p^k) is
    checked: p is tested once, and a given modulus gets one Rabin test.
    Without one (``None``) the monic irreducible of degree k whose
    low-to-high coefficient vector is lexicographically smallest is chosen,
    by one Rabin test per candidate; the choice is deterministic but
    otherwise immaterial, since every square-class-level output is
    independent of it.  Past _CHAR_BITS_CAP `_check_prime` refuses p, and
    past _RABIN_BUDGET a ValueError says the field is too large.
    """

    kind: str
    char: int = 0
    degree: int = 0
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("QQ", "RR", "CC", "GF"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind != "GF":
            return
        p, k, mod = self.char, self.degree, self.modulus
        if p == 2:
            raise ValueError("characteristic 2 unsupported")
        _check_prime(p)
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        cost = _rabin_cost(p, k)
        if mod is None:
            # Past degree 1 a zero constant term means x divides the candidate.
            tails = _coefficient_vectors(p, k, first=0 if k == 1 else 1)
            for tail in itertools.islice(tails, _RABIN_BUDGET // cost):
                if _is_irreducible(tail + (1,), p):
                    object.__setattr__(self, "modulus", tail + (1,))
                    return
            raise ValueError(f"GF({p}^{k}) is too large: no irreducible "
                             f"modulus within the search budget")
        if len(mod) != k + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of the stated degree")
        if any(not 0 <= c < p for c in mod):
            raise ValueError("modulus coefficients must be reduced mod p")
        if cost > _RABIN_BUDGET:
            raise ValueError(f"GF({p}^{k}) is too large to test for "
                             f"irreducibility")
        if not _is_irreducible(mod, p):
            raise ValueError("modulus is reducible")

    @property
    def order(self) -> int:
        if self.kind != "GF":
            raise ValueError("order is defined for finite fields only")
        return self.char ** self.degree

    @property
    def is_exact(self) -> bool:
        return self.kind in ("QQ", "GF")

    @functools.cached_property
    def _width(self) -> int:
        """w, the bits of one slot of a kernel int: see `reduce`."""
        return _slot_width(self.char, self.degree)

    def invert(self, c: int) -> int:
        """The reduced kernel int of 1 / a, for the kernel int c of a
        nonzero a, reduced first; ZeroDivisionError for zero."""
        p, c = self.char, self.reduce(c)
        if not c:
            raise ZeroDivisionError("inverse of zero field element")
        if c < p:  # a lies in GF(p)
            return pow(c, -1, p)
        w, mod = self._width, self.modulus
        inverse = _tuple_inverse(_slots(c, w, self.degree), mod, p)
        return _fold(list(inverse), mod, p, w)

    @functools.cached_property
    def reduce(self):
        """The reducer over GF(q), None over QQ, RR and CC: a function taking
        a kernel int to the reduced int of its element, which is what an
        `FFElement` holds and what `poly`'s loops and `forms._eliminate`
        compute on.

        a = sum a_i t^i, 0 <= a_i < p, is the int sum a_i 2^(w i)
        (Kronecker's t = 2^w), so ints add and multiply as polynomials in
        t, unreduced, and read back exactly as signed w-bit slots while
        every slot s has |s| < 2^(w - 1).  The kernel multiplies only
        reduced ints (or their negations), or one by an int n below 2^31,
        which counts as n products, and it reduces a product of products
        (the determinant's pivot scale and minors, the elimination's det,
        den and D) before multiplying it again.  A product of two reduced
        ints has at most k terms per slot, each below p^2 < 2^(2b), so a
        sum of up to 2^63 of them, more than any loop here runs, keeps
        |s| < 2^(2b + bits(k) + 63) = 2^(w - 1).  The reducer decodes the
        slots, takes each mod p, folds t^i for i >= k by the modulus and
        packs again: k slots in [0, p), 0 exactly for zero.  An int of one
        slot reduces by c % p, so an element of GF(p) is its residue here
        as over GF(p) itself.
        """
        if self.kind != "GF":
            return None
        return _reducer(self.char, self.modulus, self._width)

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def coerce(self, value):
        """Coerce an int / Fraction / FFElement / coefficient tuple into the
        field.  An element of GF(p) enters GF(p^k) by its residue, the
        canonical embedding; any other element of another field is refused."""
        if self.kind == "GF":
            p = self.char
            if isinstance(value, FFElement):
                F = value.field
                if F is self:
                    return value
                if F.degree == 1 and F.char == p:
                    value = value.value
                elif F == self:
                    return value
                else:
                    raise ValueError("element belongs to a different field")
            if isinstance(value, int):
                return FFElement(self, value % p)
            if isinstance(value, tuple):
                return FFElement(self, _fold(list(value), self.modulus, p,
                                             self._width))
            if isinstance(value, Fraction):
                if value.denominator % p == 0:
                    raise ZeroDivisionError(
                        "denominator divisible by the characteristic")
                return self.coerce(value.numerator *
                                   pow(value.denominator, -1, p))
            raise ValueError(f"cannot coerce {value!r} into {self}")
        if isinstance(value, FFElement):
            raise ValueError(f"cannot coerce {value!r} into {self}")
        return value if type(value) is Fraction else Fraction(value)

    def elements(self):
        """Iterate all field elements (finite fields only), deterministically."""
        if self.kind != "GF":
            raise ValueError("elements are defined for finite fields only")
        return map(self.coerce, _coefficient_vectors(self.char, self.degree))

    def __str__(self):
        if self.kind == "GF":
            return f"GF({self.order})"
        return self.kind

    def __repr__(self):
        if self.kind == "GF":
            return f"FieldDesc('GF', {self.char}, {self.degree}, {self.modulus})"
        return f"FieldDesc({self.kind!r})"

    def __getstate__(self):  # the cached reducer, a closure, is rebuilt
        return {k: self.__dict__[k] for k in ("kind", "char", "degree",
                                              "modulus")}


QQ = FieldDesc("QQ")
RR = FieldDesc("RR")
CC = FieldDesc("CC")


class FFElement:
    """An element of GF(p^k): ``value`` is its reduced kernel int (see
    `FieldDesc.reduce`), over GF(p) its residue.  ``+ - *`` are one int
    operation and one reducer call, ``inverse`` and ``/`` call
    `FieldDesc.invert`, which reduces the int once more, and ``**`` `_power`
    on the ints, each product reduced, over GF(p) Python's ``pow``.
    ``coeffs``, the coefficient tuple low to high, is derived for printing.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDesc, value: int):
        self.field = field
        self.value = value

    @property
    def coeffs(self) -> tuple[int, ...]:
        F = self.field
        return _slots(self.value, F._width, F.degree)

    def _combine(self, other, op):
        """The element whose int is op(a, b) reduced, a this element's int
        and b that of other, an element of this field or an int;
        NotImplemented for any other operand."""
        F = self.field
        if isinstance(other, FFElement):
            if other.field is not F and other.field != F:
                raise ValueError("finite field mismatch")
            b = other.value
        elif isinstance(other, int):
            b = other % F.char
        else:
            return NotImplemented
        return FFElement(F, F.reduce(op(self.value, b)))

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        return FFElement(F, F.reduce(-self.value))

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        return self._combine(other, operator.mul)

    __rmul__ = __mul__

    def inverse(self) -> "FFElement":
        return FFElement(self.field, self.field.invert(self.value))

    def __truediv__(self, other):
        return self._combine(other, lambda a, b: a * self.field.invert(b))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        F = self.field
        if F.degree == 1:
            return FFElement(F, pow(self.value, n, F.char))
        reduce = F.reduce
        return FFElement(F, _power(self.value, n, lambda a, b: reduce(a * b),
                                   1))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, int):
            return self.value == other % self.field.char
        if not isinstance(other, FFElement):
            return NotImplemented
        return self.value == other.value and (
            self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        if self.value < self.field.char:  # 0, or an element of GF(p)
            return str(self.value)
        parts = []
        coeffs = self.coeffs
        for i in range(self.field.degree - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"FFElement({self.field}, {self.coeffs})"


def gf_construct(p: int, k: int, modulus=None) -> FieldDesc:
    """The GF(p^k) descriptor, with the given modulus or, without one, the
    one :class:`FieldDesc` chooses."""
    return FieldDesc("GF", p, k, None if modulus is None else tuple(modulus))


def is_square(a, F: FieldDesc) -> bool:
    """Square-class membership test in the given field."""
    a = F.coerce(a)
    if not a:
        raise ValueError("zero has no square class")
    if F.kind == "CC":
        return True
    if F.kind == "RR":
        return a > 0
    if F.kind == "QQ":  # n/d in lowest terms: a square iff n * d is
        n = _class_integer(a)
        return n > 0 and isqrt(n) ** 2 == n
    c, p = a.value, F.char
    if c < p:  # in GF(p): a square once k is even, else Euler's
        return F.degree % 2 == 0 or pow(c, (p - 1) // 2, p) == 1
    return a ** ((F.order - 1) // 2) == F.one()  # Euler's criterion
