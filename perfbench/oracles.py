"""Correctness oracles that share no code with the library.

Forms over QQ are classified here from scratch (congruence diagonalization,
Hilbert symbols, Hasse-Minkowski), finite-field discriminants are checked
with independent GF(p^k) arithmetic, and dim Q(f) comes from sympy's
Groebner bases.  Each check returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy

# ---------------------------------------------------------------------------
# Forms over QQ.


def diagonal(gram) -> list:
    """Diagonal entries of a congruent diagonalization of a symmetric matrix."""
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    out = []
    for k in range(n):
        if not a[k][k]:
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is None:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    raise ValueError("degenerate form")
                for i in range(n):  # e_k += e_j makes a[k][k] = 2 a[k][j]
                    a[k][i] += a[j][i]
                for i in range(n):
                    a[i][k] += a[i][j]
            else:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
        piv = a[k][k]
        out.append(piv)
        for i in range(k + 1, n):  # Schur complement; it stays symmetric
            r = a[i][k] / piv
            if r:
                for j in range(k + 1, n):
                    a[i][j] -= r * a[k][j]
    return out


def _is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def same_square_class(a, b) -> bool:
    return _is_rational_square(Fraction(a) * Fraction(b))


def _valuation(x: Fraction, p: int) -> int:
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _unit_mod(x: Fraction, p: int, m: int) -> int:
    """The p-adic unit x / p^v(x) reduced modulo m (a power of p)."""
    u = x / Fraction(p) ** _valuation(x, p)
    return u.numerator * pow(u.denominator, -1, m) % m


def hilbert(a, b, p: int) -> int:
    """(a, b)_p from Serre, A Course in Arithmetic, ch. III, thm. 1."""
    a, b = Fraction(a), Fraction(b)
    al, be = _valuation(a, p), _valuation(b, p)
    if p == 2:
        u, v = _unit_mod(a, 2, 8), _unit_mod(b, 2, 8)
        e = lambda x: (x - 1) // 2 % 2  # noqa: E731
        w = lambda x: (x * x - 1) // 8 % 2  # noqa: E731
        return -1 if (e(u) * e(v) + al * w(v) + be * w(u)) % 2 else 1
    u, v = _unit_mod(a, p, p), _unit_mod(b, p, p)
    leg = lambda x: 1 if pow(x, (p - 1) // 2, p) == 1 else -1  # noqa: E731
    s = (-1) ** (al * be * ((p - 1) // 2) % 2)
    return s * leg(u) ** (be % 2) * leg(v) ** (al % 2)


def hasse_witt(diag, p: int) -> int:
    out = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            out *= hilbert(diag[i], diag[j], p)
    return out


def _is_padic_square(x: Fraction, p: int) -> bool:
    if _valuation(x, p) % 2:
        return False
    if p == 2:
        return _unit_mod(x, 2, 8) == 1
    return pow(_unit_mod(x, p, p), (p - 1) // 2, p) == 1


def _support(diag) -> set:
    primes = {2}
    for x in diag:
        primes.update(sympy.primefactors(x.numerator))
        primes.update(sympy.primefactors(x.denominator))
    return primes


def _prod(xs) -> Fraction:
    out = Fraction(1)
    for x in xs:
        out *= x
    return out


def isomorphic(d1, d2) -> bool:
    """Hasse-Minkowski: rank, signature, discriminant, Hasse-Witt everywhere."""
    if len(d1) != len(d2) or sum(x > 0 for x in d1) != sum(x > 0 for x in d2):
        return False
    if not same_square_class(_prod(d1), _prod(d2)):
        return False
    return all(hasse_witt(d1, p) == hasse_witt(d2, p)
               for p in _support(list(d1) + list(d2)))


def anisotropic(diag) -> bool:
    """Serre ch. IV, thm. 6 at every finite place, plus the real place."""
    n = len(diag)
    if n <= 1:
        return True
    if abs(sum(1 if x > 0 else -1 for x in diag)) == n:
        return True
    if n >= 5:
        return False
    d = _prod(diag)
    for p in _support(diag):
        eps = hasse_witt(diag, p)
        if n == 2:
            isotropic = _is_padic_square(-d, p)
        elif n == 3:
            isotropic = hilbert(-1, -d, p) == eps
        else:
            isotropic = (not _is_padic_square(d, p)
                         or eps == hilbert(-1, -1, p))
        if not isotropic:
            return True
    return False


def _gram(obj) -> list:
    return [[Fraction(s) for s in row] for row in obj["gram"]]


def check_qq_invariants(out: dict):
    """The reported signature, discriminant and Hasse-Witt values."""
    diag = diagonal(_gram(out))
    sig = sum(1 if x > 0 else -1 for x in diag)
    if out.get("signature") != sig:
        return f"signature {out.get('signature')} != {sig}"
    if diag and not same_square_class(Fraction(out["discriminant"]),
                                      _prod(diag)):
        return f"discriminant {out['discriminant']} is not det mod squares"
    for p, value in out.get("hasse_witt", {}).items():
        if hasse_witt(diag, int(p)) != value:
            return f"hasse_witt at {p} is {value}"
    return None


# ---------------------------------------------------------------------------
# Finite fields GF(p^k): elements are coefficient lists, low degree first.


class GF:
    def __init__(self, p: int, modulus):
        self.p, self.mod = p, list(modulus)
        self.k = len(modulus) - 1
        self.q = p ** self.k

    def parse(self, text: str) -> list:
        coeffs = [0] * self.k
        for term in text.replace(" ", "").split("+"):
            c, _, power = term.partition("t")
            if not _:
                coeffs[0] += int(c)
                continue
            e = int(power[1:]) if power else 1
            coeffs[e] += int(c.rstrip("*")) if c else 1
        return [c % self.p for c in coeffs]

    def mul(self, a, b) -> list:
        prod = [0] * (2 * self.k)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for e in range(len(prod) - 1, self.k - 1, -1):
            c = prod[e] % self.p
            if c:
                for i, m in enumerate(self.mod):
                    prod[e - self.k + i] -= c * m
        return [c % self.p for c in prod[:self.k]]

    def power(self, a, n: int) -> list:
        out = [1] + [0] * (self.k - 1)
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def det(self, rows) -> list:
        a = [list(map(list, row)) for row in rows]
        n = len(a)
        det = [1] + [0] * (self.k - 1)
        for c in range(n):
            piv = next((i for i in range(c, n) if any(a[i][c])), None)
            if piv is None:
                return [0] * self.k
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                det = [-x % self.p for x in det]
            det = self.mul(det, a[c][c])
            inv = self.power(a[c][c], self.q - 2)
            for i in range(c + 1, n):
                r = self.mul(a[i][c], inv)
                if any(r):
                    for j in range(c, n):
                        t = self.mul(r, a[c][j])
                        a[i][j] = [(x - y) % self.p for x, y in zip(a[i][j], t)]
        return det

    def is_square(self, a) -> bool:
        return self.power(a, (self.q - 1) // 2) == [1] + [0] * (self.k - 1)


def check_gf_discriminant(out: dict, p: int):
    field = GF(p, out["field"]["modulus"])
    det = field.det([[field.parse(s) for s in row] for row in out["gram"]])
    disc = field.parse(out["discriminant"])
    if not any(det) or not field.is_square(field.mul(det, disc)):
        return f"discriminant {out['discriminant']} is not det mod squares"
    return None


# ---------------------------------------------------------------------------
# dim Q(f) from sympy.


def quotient_dimension(char: int, names, polys) -> int:
    """dim Q(f) for polynomials given as (exponents, coefficient) pairs."""
    gens = sympy.symbols(names)
    opts = {"modulus": char} if char else {"domain": "QQ"}
    gb = sympy.groebner([sympy.Poly.from_dict(dict(f), *gens, **opts)
                         for f in polys], *gens, order="grevlex", **opts)
    leads = [g.monoms(order="grevlex")[0] for g in gb.polys]
    n = len(gens)
    seen, frontier = set(), [(0,) * n]
    while frontier:
        m = frontier.pop()
        if m in seen or any(all(a >= b for a, b in zip(m, lm)) for lm in leads):
            continue
        seen.add(m)
        frontier.extend(tuple(e + (i == j) for j, e in enumerate(m))
                        for i in range(n))
    return len(seen)


# ---------------------------------------------------------------------------
# Dispatch on what the workload generator recorded about each operation.

_FERMAT_CLASS = [1, -1] * 8 + [1, 1]  # 8H + <1> + <1>
EXPECTED_CLASSES = {
    "quartic": [[-7, -6, 0, 1], [-6, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    "quartic_complex": [[-5, -7], [-7, -2]],
    "quartic_3": [[65]],
    "quartic_-2": [[-15]],
    "fermat": [[int(i == j) * a for j in range(18)]
               for i, a in enumerate(_FERMAT_CLASS)],
    "fermat_point": [[81]],
}
_dims: dict = {}


def check(expect: dict, out: dict):
    """None if the JSON output of one query is right, else the reason."""
    if out.get("rank") != expect["rank"]:
        return f"rank {out.get('rank')} != {expect['rank']}"
    if out["field"]["name"] == "QQ":
        reason = check_qq_invariants(out)
    else:
        reason = check_gf_discriminant(out, expect.get("char")
                                       or expect["system"][0])
    if reason:
        return reason
    cls = expect.get("class")
    if cls == "grassmannian":  # 2H + <1> + <1> over GF(27): discriminant 1
        return None if out["discriminant"] == "1" else "not 2H + <1> + <1>"
    if cls is not None:
        want = EXPECTED_CLASSES[cls]
    elif "det_jac" in expect:
        want = [[expect["det_jac"]]]
    else:
        want = None
    if want is not None and not isomorphic(diagonal(_gram(out)),
                                           diagonal(want)):
        return f"class is not the expected {cls or 'det Jac'}"
    if "system" in expect:
        key = expect["system"]
        if key not in _dims:
            _dims[key] = quotient_dimension(*key)
        if _dims[key] != expect["rank"]:
            return f"sympy dim Q(f) = {_dims[key]}, not {expect['rank']}"
    if "entries" in expect or "matrix" in expect:
        return _check_decomposition(expect, out)
    return None


def _check_decomposition(expect: dict, out: dict):
    given = expect.get("matrix") or [[int(i == j) * a for j in range(len(
        expect["entries"]))] for i, a in enumerate(expect["entries"])]
    if _gram(out) != [[Fraction(x) for x in row] for row in given]:
        return "gram is not the input form"
    w = out["witt_index"]
    part = diagonal(_gram({"gram": out["anisotropic_part"]}))
    if len(part) + 2 * w != expect["rank"]:
        return "rank != 2 * witt_index + anisotropic rank"
    if not isomorphic(diagonal(given), part + [1, -1] * w):
        return "form is not anisotropic part + witt_index * H"
    if not anisotropic(part):
        return "anisotropic part is isotropic"
    if out["isotropic"] != (w > 0):
        return "isotropic flag disagrees with the Witt index"
    hyperbolic = out["decomposition"].split(" + ")[0]
    if w and hyperbolic != f"{w}H":
        return f"decomposition {out['decomposition']!r} has the wrong H count"
    if "display" in expect and out["decomposition"] != expect["display"]:
        return f"decomposition {out['decomposition']!r}"
    return None
