from __future__ import annotations

import itertools
import pickle
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from a1degrees import fields
from a1degrees.fields import (CC, QQ, RR, FFElement, FieldDesc, factorize,
                              gf_construct, is_padic_square, is_prime,
                              is_square, legendre_symbol, odd_prime_support,
                              padic_valuation, squarefree_part)
from a1degrees.fields import _is_irreducible
from a1degrees.forms import canonical_nonsquare

nonzero_small = st.integers(min_value=-200, max_value=200).filter(bool)


# -- primality and factoring -------------------------------------------------


def test_is_prime_matches_trial_division_below_2000():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == trial(n), n


def test_is_prime_rejects_carmichael_numbers():
    for n in (561, 1105, 1729, 2465, 6601, 8911):
        assert not is_prime(n)


def test_is_prime_accepts_large_primes():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


def test_factorize_reconstructs_and_uses_prime_factors():
    for n in (1, 2, 12, 360, 1001, 2 ** 10 * 3 ** 4, 999983, 10007 * 10009):
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n


def test_factorize_matches_sympy():
    above = [p for p in range(1 << 10, 1 << 11) if is_prime(p)][:4]
    cases = [p ** e for p in above for e in (2, 3)]
    cases += [p * q for p, q in itertools.combinations(above, 2)]
    cases.append(3 * 473503 * 658247)
    rng = random.Random(48)
    cases += [rng.randrange(1, 1 << 48) for _ in range(300)]
    for n in cases:
        fac = factorize(n)
        assert fac == sympy.factorint(n), n
        assert list(fac) == sorted(fac), n
        assert factorize(-n) == fac


# Two primes of 20 digits: rho needs about 10^10 steps to split their product.
SEMIPRIME = 10000000000000000051 * 10000000000000000087


def test_factorize_stops_at_its_budget():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="square class too large to factor"):
        factorize(SEMIPRIME)
    assert time.perf_counter() - start < 5.0


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def _semiprime(bits):
    """The product of two primes of bits bits, 2 * bits - 1 bits long."""
    return _next_prime(2 ** (bits - 1) + 12345) * \
        _next_prime(2 ** (bits - 1) + 987654321)


@pytest.mark.parametrize("bits", [200, 500])
def test_factorize_refuses_a_large_semiprime_in_the_small_one_time(bits):
    # A squaring mod the 399- or 999-bit product costs 3 to 14 times one
    # mod a 127-bit n, and rho charges it so: uncharged, the refusal took
    # 4 s and 15 s.
    n = _semiprime(bits)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="square class too large to factor"):
        factorize(n)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("bits", [64, 100, 200, 500])
def test_rho_refusal_spends_its_budget_to_within_one_block(monkeypatch, bits):
    # One gcd closes each block of product steps.  The rounds of r = 1, 2,
    # ..., 64 squarings make seven short blocks, charged 2 * 127 squarings
    # together; after them each block of 128 squarings and 128 product
    # steps is charged 256, each at (L^2 + 3)/4 mod an n of L limbs.
    n = _semiprime(bits)
    blocks = _counting(monkeypatch, fields, "gcd")
    with pytest.raises(ValueError, match="square class too large to factor"):
        fields._pollard_rho(n, fields._RHO_BUDGET)
    limbs = -(-n.bit_length() // 128)
    squarings = fields._RHO_BUDGET * 4 / (limbs * limbs + 3)
    paid = 7 + (squarings - 2 * 127) / 256
    assert 0.95 * paid <= len(blocks) <= paid + 1


def test_rho_charges_each_round_by_the_size_of_n():
    # Modulo 1009 rho's sequence is the same whatever the cofactor, so it
    # finds 1009 in the same rounds for each n: only the charge differs, 2r
    # per round of r squarings below 2^128 as before, and (L^2 + 3)/4 times
    # that for L limbs of 128 bits.
    spent = {}
    for bits in (40, 128, 129, 399, 999):
        n = 1009 * _next_prime(2 ** (bits - 10))
        assert n.bit_length() == bits
        d, left = fields._pollard_rho(n, fields._RHO_BUDGET)
        assert d == 1009
        spent[bits] = fields._RHO_BUDGET - left
    last = (spent[40] + 2) // 4  # spent[40] = 2 * (1 + 2 + ... + last)
    assert spent[40] == spent[128] == 2 * (2 * last - 1)
    assert spent[40] < spent[129] < spent[399] < spent[999]
    assert spent[999] >= 16 * spent[40]


def test_factorize_refuses_a_cofactor_past_the_cap_before_testing_it(
        monkeypatch):
    # Miller-Rabin takes about 3 s on the prime 2^4423 - 1, so a cofactor
    # above _CHAR_BITS_CAP bits is refused untested.  The bound applies
    # after trial division: a power of a small prime factors at any size.
    tested = _counting(monkeypatch, fields, "is_prime")
    big = 2 ** 4423 - 1
    for n in (big, 3 ** 5 * big, -big):
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match="square class too large to factor"):
            factorize(n)
        assert time.perf_counter() - start < 0.5
    assert tested == []
    assert factorize(2 ** 5000) == {2: 5000}
    assert factorize(3 ** 2000 * 1009 ** 3) == {3: 2000, 1009: 3}
    assert tested == []
    # A cofactor within the cap is tested as before.
    assert factorize(5 * (2 ** 521 - 1)) == {5: 1, 2 ** 521 - 1: 1}
    assert tested == [2 ** 521 - 1]


def test_a_cofactor_left_below_the_square_of_the_divisor_is_not_tested(
        monkeypatch):
    # Trial division stops at p * p > n with no factor of n below p, so n
    # is prime: 617 after the 2 of 1234, and 1019 * 1021 at p = 1019.
    tested = _counting(monkeypatch, fields, "is_prime")
    assert factorize(2 * 617) == {2: 1, 617: 1}
    assert factorize(1019 * 1021) == {1019: 1, 1021: 1}
    assert factorize(-997) == {997: 1}
    assert tested == []


def test_factorize_matches_brute_force_on_both_sides_of_the_trial_limit():
    least = list(range(20001))  # each n's least prime factor, by a sieve
    for p in range(2, 20001):
        if least[p] == p:
            for m in range(p * p, 20001, p):
                least[m] = min(least[m], p)
    for n in range(1, 20001):
        want, m = {}, n
        while m > 1:
            want[least[m]] = want.get(least[m], 0) + 1
            m //= least[m]
        assert factorize(n) == want == factorize(-n), n
    below = [p for p in range(2, 1 << 10) if is_prime(p)]
    above = [p for p in range(1 << 10, 1 << 12) if is_prime(p)]
    rng = random.Random(58)
    for _ in range(300):
        primes = rng.sample(below, rng.randrange(3)) + \
            rng.sample(above, rng.randrange(1, 4))
        n = 1
        for p in primes:
            n *= p ** rng.randrange(1, 3)
        fac = factorize(n)
        assert fac == sympy.factorint(n), n
        assert list(fac) == sorted(fac), n


# -- square classes ----------------------------------------------------------


def test_squarefree_part_examples():
    assert squarefree_part(18) == 2
    assert squarefree_part(1) == 1
    assert squarefree_part(Fraction(-9, 4)) == -1
    assert squarefree_part(Fraction(8, 27)) == 6


def test_squarefree_part_rejects_zero():
    with pytest.raises(ValueError, match="zero has no square class"):
        squarefree_part(0)


@given(nonzero_small, nonzero_small)
def test_squarefree_part_is_square_class_invariant(r, t):
    assert squarefree_part(Fraction(r) * t * t) == squarefree_part(r)


def test_squarefree_part_output_is_squarefree():
    for r in range(-100, 101):
        if not r:
            continue
        s = squarefree_part(r)
        assert all(e == 1 for e in factorize(abs(s)).values())
        quot = Fraction(r, s)
        assert quot > 0 and squarefree_part(quot) == 1


# -- p-adic valuations -------------------------------------------------------


def test_padic_valuation_examples():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(Fraction(5, 8), 2) == -3
    assert padic_valuation(7, 3) == 0


def test_padic_valuation_errors():
    with pytest.raises(ValueError):
        padic_valuation(0, 2)
    with pytest.raises(ValueError):
        padic_valuation(5, 6)


@given(nonzero_small, nonzero_small, st.sampled_from([2, 3, 5, 7]))
def test_padic_valuation_is_additive(r, s, p):
    assert padic_valuation(Fraction(r) * s, p) == \
        padic_valuation(r, p) + padic_valuation(s, p)


def test_odd_prime_support():
    assert odd_prime_support(Fraction(-30)) == [3, 5]
    assert odd_prime_support(Fraction(8)) == []
    assert odd_prime_support(Fraction(7, 5)) == [5, 7]


def test_odd_prime_support_factors_once(monkeypatch):
    from a1degrees import fields
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(fields, "factorize", counting)
    assert odd_prime_support(Fraction(-2 * 3 ** 3 * 5 ** 2, 7 * 11 ** 2)) == [3, 7]
    assert len(calls) == 1


# -- Legendre symbols --------------------------------------------------------


def test_legendre_symbol_examples():
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(2, 13) == -1
    assert legendre_symbol(13, 13) == 0


def test_legendre_symbol_matches_square_enumeration():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(-p, 2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre_symbol(a, p) == expected


def test_legendre_symbol_is_multiplicative():
    for p in (7, 13):
        for a in range(1, 30):
            for b in range(1, 30):
                assert legendre_symbol(a * b, p) == \
                    legendre_symbol(a, p) * legendre_symbol(b, p)


# -- p-adic squares ----------------------------------------------------------


def test_is_padic_square_odd_p_matches_legendre():
    for p in (3, 5, 7):
        for u in range(1, 40):
            if u % p == 0:
                continue
            assert is_padic_square(Fraction(u), p) == (legendre_symbol(u, p) == 1)
            # odd valuation is never a square
            assert not is_padic_square(Fraction(u * p), p)


def test_is_padic_square_at_two():
    # units: square iff congruent to 1 mod 8
    for u in range(1, 50, 2):
        assert is_padic_square(Fraction(u), 2) == (u % 8 == 1)
    assert is_padic_square(Fraction(2465), 2)
    assert not is_padic_square(Fraction(-2465), 2)
    assert not is_padic_square(Fraction(2), 2)
    assert is_padic_square(Fraction(4), 2)


def _padic_square_by_residues(r: Fraction, p: int) -> bool:
    """Split r = p^v * w by hand, then look the unit w up among the unit
    squares mod p (mod 8 at p = 2): Hensel lifts a root from there."""
    v = 0
    while r.numerator % p == 0:
        r, v = r / p, v + 1
    while r.denominator % p == 0:
        r, v = r * p, v - 1
    m = 8 if p == 2 else p
    squares = {x * x % m for x in range(m) if x % p}
    return v % 2 == 0 and r.numerator * pow(r.denominator, -1, m) % m in squares


def test_is_padic_square_matches_residue_enumeration():
    rng = random.Random(17)
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(150):
            num = rng.choice([-1, 1]) * rng.randint(1, 300) * p ** rng.randint(0, 4)
            den = rng.randint(1, 300) * p ** rng.randint(0, 4)
            r = Fraction(num, den)
            assert is_padic_square(r, p) == _padic_square_by_residues(r, p), (r, p)


def test_is_padic_square_checks_its_arguments():
    with pytest.raises(ValueError, match="zero"):
        is_padic_square(0, 3)
    with pytest.raises(ValueError, match="not prime"):
        is_padic_square(3, 15)


# -- field descriptors -------------------------------------------------------


def test_module_field_constants():
    assert QQ.kind == "QQ" and RR.kind == "RR" and CC.kind == "CC"
    assert QQ.coerce(Fraction(2, 3)) == Fraction(2, 3)


def test_is_square_examples():
    assert is_square(Fraction(4), QQ)
    assert not is_square(Fraction(-3), RR)
    assert is_square(Fraction(-3), CC)
    F13 = gf_construct(13, 1)
    assert not is_square(F13.coerce(2), F13)
    assert is_square(F13.coerce(3), F13)


def test_is_square_matches_the_full_euler_criterion():
    # Elements of GF(p) take the short test; the rest the full power.
    for q, p, k in ((25, 5, 2), (27, 3, 3), (121, 11, 2)):
        F = gf_construct(p, k)
        for a in F.elements():
            if a:
                euler = a ** ((q - 1) // 2) == F.one()
                assert is_square(a, F) == euler, (q, a)


def test_is_square_rejects_zero():
    with pytest.raises(ValueError):
        is_square(Fraction(0), QQ)


def test_is_square_over_qq_matches_squarefree_part():
    for n in range(-30, 31):
        for d in range(1, 31):
            if n:
                r = Fraction(n, d)
                assert is_square(r, QQ) == (squarefree_part(r) == 1), r


def test_is_square_over_qq_needs_no_factoring(monkeypatch):
    def forbidden(n):
        raise AssertionError("a rational square test must not factor")

    monkeypatch.setattr(fields, "factorize", forbidden)
    p, q = 10000000000037, 10000000000051
    assert is_square(Fraction(p * p, q * q), QQ)
    assert not is_square(Fraction(p * q, q * q * p * p), QQ)
    assert not is_square(Fraction(-p * p, q * q), QQ)


def test_square_classes_form_a_group():
    F13 = gf_construct(13, 1)
    units = [F13.coerce(a) for a in range(1, 13)]
    for a in units:
        for b in units:
            if is_square(a, F13) == is_square(b, F13):
                assert is_square(a * b, F13)


def test_gf_construct_rejects_characteristic_two():
    with pytest.raises(ValueError, match="characteristic 2 unsupported"):
        gf_construct(2, 1)


def test_gf_construct_prime_field():
    F13 = gf_construct(13, 1)
    assert F13.char == 13 and F13.degree == 1
    assert F13.order == 13


def test_gf_construct_is_deterministic():
    assert gf_construct(3, 3) == gf_construct(3, 3)
    assert gf_construct(3, 3).modulus == gf_construct(3, 3).modulus


def _poly_eval_mod(coeffs, x, p):
    # coeffs are constant-first
    return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def test_gf27_modulus_is_lex_smallest_irreducible_cubic():
    # independent enumeration: a monic cubic over Z/3 is irreducible iff it
    # has no root; scan coefficient tuples in the same constant-first order
    expected = None
    for tail in itertools.product(range(3), repeat=3):
        coeffs = tail + (1,)
        if all(_poly_eval_mod(coeffs, x, 3) for x in range(3)):
            expected = coeffs
            break
    F27 = gf_construct(3, 3)
    assert F27.modulus == expected
    assert all(_poly_eval_mod(F27.modulus, x, 3) for x in range(3))


def test_gf_coerce_inverts_denominators():
    F13 = gf_construct(13, 1)
    half = F13.coerce(Fraction(1, 2))
    assert half + half == F13.one()
    with pytest.raises(ZeroDivisionError):
        F13.coerce(Fraction(1, 13))


def test_ff_element_arithmetic_gf9():
    F9 = gf_construct(3, 2)
    elems = list(F9.elements())
    assert len(elems) == 9
    nonzero = [a for a in elems if a]
    for a in nonzero:
        assert a * a.inverse() == F9.one()
        assert a ** (9 - 1) == F9.one()
    # Frobenius is additive in characteristic 3
    for a in elems:
        for b in elems:
            assert (a + b) ** 3 == a ** 3 + b ** 3


def test_gf_squares_split_units_in_half():
    for (p, k) in ((3, 1), (13, 1), (3, 2), (3, 3)):
        F = gf_construct(p, k)
        units = [a for a in F.elements() if a]
        squares = [a for a in units if is_square(a, F)]
        assert len(squares) == len(units) // 2


def test_field_desc_rejects_characteristic_two_descriptor():
    with pytest.raises(ValueError):
        FieldDesc("GF", 2, 1, (0, 1))


# -- irreducibility and GF(p^k) arithmetic against schoolbook references -----


def _schoolbook(a, b, p):
    """Constant-first product of two coefficient sequences over Z/p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _monics(p, d):
    return [tail + (1,) for tail in itertools.product(range(p), repeat=d)]


def _reducible_monics(p, k):
    """Every reducible monic of degree k: a product of two of lower degree."""
    return {tuple(_schoolbook(g, h, p)) for d in range(1, k // 2 + 1)
            for g in _monics(p, d) for h in _monics(p, k - d)}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rabin_irreducibility_matches_brute_force(p, k):
    reducible = _reducible_monics(p, k)
    candidates = _monics(p, k)
    smallest = next(f for f in candidates if f not in reducible)
    assert gf_construct(p, k).modulus == smallest
    if p ** k > 1000:  # the quartics over Z/7, Z/11, Z/13: a seeded sample
        candidates = random.Random(p).sample(candidates, 400)
    for f in candidates:
        assert _is_irreducible(f, p) == (f not in reducible), f


def test_gf_construct_large_field_is_fast():
    start = time.perf_counter()
    F = gf_construct(101, 4)
    assert time.perf_counter() - start < 1.0
    assert F.modulus == (1, 0, 0, 1, 1)
    assert _is_irreducible(F.modulus, 101)


def test_gf_construct_huge_prime_enumerates_lazily():
    # p = 10^18 + 3 is 3 mod 8: x is the first monic linear, x^2 + 1 the
    # first irreducible quadratic, and 2 the first nonsquare of GF(p)
    p = 10**18 + 3
    F = gf_construct(p, 1)
    assert F.modulus == (0, 1)
    assert gf_construct(p, 2).modulus == (1, 0, 1)
    assert canonical_nonsquare(F) == F.coerce(2)
    assert [a.coeffs for a in itertools.islice(F.elements(), 3)] == \
        [(0,), (1,), (2,)]


@pytest.mark.parametrize("p, k", [(3, 120), (2**521 - 1, 8)],
                         ids=["GF(3^120)", "GF((2^521-1)^8)"])
def test_field_past_the_rabin_budget_fails_before_any_test(monkeypatch, p, k):
    def forbidden(*args):
        raise AssertionError("no Rabin test past the budget")

    monkeypatch.setattr(fields, "_is_irreducible", forbidden)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        gf_construct(p, k)
    with pytest.raises(ValueError, match="too large"):
        gf_construct(p, k, modulus=(1,) * (k + 1))
    assert time.perf_counter() - start < 1.0


def test_gf_construct_search_stops_at_the_rabin_budget(monkeypatch):
    # The budget holds two tests of degree 80 over Z/3: the search tests
    # x^80 + 1 and x^80 + x^79 + 1, then stops.
    tested = []
    original = fields._is_irreducible

    def counting(f, p):
        tested.append(f)
        return original(f, p)

    monkeypatch.setattr(fields, "_is_irreducible", counting)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"GF\(3\^80\) is too large"):
        gf_construct(3, 80)
    assert time.perf_counter() - start < 1.0
    assert tested == [(1,) + (0,) * 79 + (1,), (1,) + (0,) * 78 + (1, 1)]


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its first arguments."""
    seen, original = [], getattr(module, name)

    def counting(*args):
        seen.append(args[0])
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return seen


@pytest.mark.parametrize("p, k", [(3, 1), (13, 4), (10**18 + 3, 2),
                                  (2**127 - 1, 3)])
def test_gf_construct_tests_the_characteristic_once(monkeypatch, p, k):
    tested = _counting(monkeypatch, fields, "is_prime")
    gf_construct(p, k)
    assert tested.count(p) == 1


@pytest.mark.parametrize("p, k", [(3, 3), (5, 2), (7, 4), (3, 6), (11, 3)])
def test_modulus_search_tests_each_candidate_once(monkeypatch, p, k):
    tested = _counting(monkeypatch, fields, "_is_irreducible")
    F = gf_construct(p, k)
    # the monics prime to x in lexicographic order, each tested once up to
    # the chosen one, which is not tested again; all before it are reducible
    candidates = [t + (1,) for t in itertools.product(range(p), repeat=k)
                  if t[0] or k == 1]
    assert tested == candidates[:candidates.index(F.modulus) + 1]
    reducible = _reducible_monics(p, k)
    assert all(f in reducible for f in tested[:-1])


def test_explicit_modulus_gets_one_rabin_test(monkeypatch):
    tested = _counting(monkeypatch, fields, "_is_irreducible")
    F = gf_construct(3, 3, [2, 2, 0, 1])
    assert F.modulus == (2, 2, 0, 1) and tested == [(2, 2, 0, 1)]
    with pytest.raises(ValueError, match="reducible"):
        FieldDesc("GF", 3, 3, (1, 1, 1, 1))
    assert tested == [(2, 2, 0, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("p, k", [(3, 1), (3, 3), (5, 2), (101, 4),
                                  (10**18 + 3, 2)])
def test_descriptor_without_modulus_is_the_constructed_field(p, k):
    F = FieldDesc("GF", p, k)
    assert F == gf_construct(p, k) and F.modulus == gf_construct(p, k).modulus
    assert hash(F) == hash(gf_construct(p, k))


def test_explicit_empty_modulus_is_rejected():
    with pytest.raises(ValueError, match="monic of the stated degree"):
        gf_construct(3, 3, [])
    with pytest.raises(ValueError, match="monic of the stated degree"):
        FieldDesc("GF", 13, 1, ())


def test_characteristic_past_the_size_cap_fails_before_any_test(monkeypatch):
    def forbidden(n):
        raise AssertionError("no primality test past the size cap")

    monkeypatch.setattr(fields, "is_prime", forbidden)
    start = time.perf_counter()
    for p, k in ((2**4423 - 1, 1), (2**3217 - 1, 2)):
        with pytest.raises(ValueError, match="bits, more than"):
            gf_construct(p, k)
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    assert (2**521 - 1).bit_length() <= fields._CHAR_BITS_CAP
    assert gf_construct(2**521 - 1, 1).modulus == (0, 1)


def test_elements_keep_lexicographic_order():
    F = gf_construct(3, 2)
    assert [a.coeffs for a in F.elements()] == \
        list(itertools.product(range(3), repeat=2))
    for p in (3, 5, 10**18 + 3):
        assert list(fields._coefficient_vectors(p, 0)) == [()]


def _reference_mul(a, b, field):
    """Schoolbook product, then long division by the monic modulus."""
    p, k, mod = field.char, field.degree, field.modulus
    prod = _schoolbook(a, b, p)
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        for j in range(k + 1):
            prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
    return tuple(prod[:k])


@pytest.mark.parametrize("q", [(3, 2), (5, 2), (3, 3)])
def test_gf_arithmetic_matches_schoolbook_reference(q):
    F = gf_construct(*q)
    p = F.char
    elems = list(F.elements())
    one = F.one().coeffs
    for a in elems:
        for b in elems:
            assert (a * b).coeffs == _reference_mul(a.coeffs, b.coeffs, F)
            assert (a + b).coeffs == tuple((x + y) % p for x, y in
                                           zip(a.coeffs, b.coeffs))
            assert (a - b).coeffs == tuple((x - y) % p for x, y in
                                           zip(a.coeffs, b.coeffs))
        if a:
            assert _reference_mul(a.coeffs, a.inverse().coeffs, F) == one


def test_canonical_nonsquare_matches_the_first_nonsquare_of_the_scan():
    checked = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for k in itertools.count(1):
            if p ** k > 30000:
                break
            F = gf_construct(p, k)
            first = next(a for a in F.elements() if a and not is_square(a, F))
            assert canonical_nonsquare.__wrapped__(F) == first, (p, k)
            checked += 1
    assert checked == 37


@pytest.mark.parametrize("q", [(3, 2), (5, 2), (3, 3), (3, 4)])
def test_line_leaders_are_the_elements_led_by_a_one(q):
    from a1degrees.forms import _line_leaders
    F = gf_construct(*q)
    assert [a.coeffs for a in _line_leaders(F)] == \
        [a.coeffs for a in F.elements()
         if a and next(c for c in a.coeffs if c) == 1]


def test_canonical_nonsquare_over_even_degree_skips_whole_lines(monkeypatch):
    from a1degrees import forms
    calls = []
    real = forms.is_square
    monkeypatch.setattr(forms, "is_square",
                        lambda a, F: calls.append(a) or real(a, F))
    # modulus x^2 + 1 and p = 3 mod 8: t and 1 are squares, 1 + t has norm 2
    for p in (100003, 10**18 + 3):
        calls.clear()
        F = gf_construct(p, 2)
        assert canonical_nonsquare.__wrapped__(F).coeffs == (1, 1)
        assert len(calls) <= 3


# -- element arithmetic against a schoolbook reference ----------------------


def _reference_pow(a, n, field):
    result = (1,) + (0,) * (field.degree - 1)
    for _ in range(n):
        result = _reference_mul(result, a, field)
    return result


TABLED = [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (11, 2), (5, 3)]


@pytest.mark.parametrize("pk", TABLED)
def test_table_arithmetic_matches_reference(pk):
    F = gf_construct(*pk)
    p, q = F.char, F.order
    elems = list(F.elements())
    by_coeffs = {a.coeffs: a for a in elems}
    assert len(by_coeffs) == q
    zero, one = by_coeffs[(0,) * F.degree], F.one()

    for a in elems:
        assert (-a).coeffs == tuple(-x % p for x in a.coeffs)
        assert bool(a) == any(a.coeffs)
        if a:
            inv = a.inverse()
            assert _reference_mul(a.coeffs, inv.coeffs, F) == one.coeffs
            for n in (-3, -1, 0, 1, 2, 5, q, q + 3):
                m = n % (q - 1)
                expected = _reference_pow(inv.coeffs if n < 0 else a.coeffs,
                                          -n if n < 0 else m, F)
                assert (a ** n).coeffs == expected, (a, n)
            euler = _reference_pow(a.coeffs, (q - 1) // 2, F)
            assert is_square(a, F) == (euler == one.coeffs), a
        else:
            assert a ** 0 == one and a ** 3 == zero
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        for b in elems:
            assert (a * b).coeffs == _reference_mul(a.coeffs, b.coeffs, F)
            assert (a + b).coeffs == tuple((x + y) % p for x, y in
                                           zip(a.coeffs, b.coeffs))
            assert (a - b).coeffs == tuple((x - y) % p for x, y in
                                           zip(a.coeffs, b.coeffs))
            assert (a == b) == (a.coeffs == b.coeffs)
            if b:
                assert _reference_mul((a / b).coeffs, b.coeffs, F) == a.coeffs


def test_int_minus_element_and_equal_elements_hash_alike():
    F = gf_construct(5, 2)
    a = F.coerce((2, 1))
    assert 3 - a == -(a - 3) == F.coerce((1, 4))
    # Equal elements built apart compare and hash alike.
    for G in (F, gf_construct(4099, 1), gf_construct(17, 3)):
        x, y = G.coerce(3), G.coerce(3 + G.char)
        assert x == y and hash(x) == hash(y)
        assert len({x, y, G.coerce(4)}) == 2
        assert 5 - x == x - 1 == G.coerce(2) and 3 - y == G.zero()
        with pytest.raises(TypeError):
            Fraction(1, 2) - x


@pytest.mark.parametrize("pk", [(5, 2), (4099, 1)])
def test_elements_refuse_foreign_operands(pk):
    F = gf_construct(*pk)
    a = F.coerce(3)
    for op in (lambda: a + "s", lambda: a - 1.5, lambda: 1.5 - a,
               lambda: a / "s"):
        with pytest.raises(TypeError):
            op()
    assert (a == "s") is False and a != "s"


@pytest.mark.parametrize("pk", [(7, 1), (5, 2), (10007, 3), ((1 << 61) - 1, 2)])
def test_kernel_ints_are_the_field(pk):
    # An element holds its reduced kernel int, which the kernel computes on
    # with reduce and invert: the ints add and multiply as their elements
    # do, unreduced, an element of GF(p) is its residue, and a used
    # descriptor and its elements still pickle.
    F = gf_construct(*pk)
    p, k = pk
    rng = random.Random(str(F))
    for _ in range(50):
        a, b = (F.coerce(tuple(rng.randrange(p) for _ in range(k)))
                for _ in range(2))
        c, d = a.value, b.value
        assert F.reduce(c) == c and FFElement(F, c) == a
        assert FFElement(F, F.reduce(c * d - 3 * d + c)) == \
            a * b - 3 * b + a
        if a:
            assert FFElement(F, F.invert(c)) == a.inverse()
            assert F.invert(-c) == (-a.inverse()).value
        n = rng.randrange(-p, p)
        assert F.coerce(n).value == F.reduce(n) == n % p
    again = pickle.loads(pickle.dumps(F))
    assert again == F and again.reduce(p + 1) == 1
    x = pickle.loads(pickle.dumps(a))
    assert x == a and hash(x) == hash(a) and x.coeffs == a.coeffs


def test_descriptors_print_their_construction():
    assert repr(gf_construct(5, 2)) == "FieldDesc('GF', 5, 2, (1, 1, 1))"
    assert repr(QQ) == "FieldDesc('QQ')"


def test_prime_field_elements_enter_extensions_by_their_residues():
    F = gf_construct(5, 4)
    for n in range(-5, 10):
        a = F.coerce(gf_construct(F.char, 1).coerce(n))
        assert a.field is F and a.coeffs == F.coerce(n).coeffs
    a = F.coerce((2, 1, 0, 3))
    assert F.coerce(a) is a
    assert FieldDesc("GF", 5, 4, F.modulus).coerce(a) is a  # equal, built apart


# GF(10007^3) and GF((2^61 - 1)^2) have slots of several words.
SAMPLED = [(4099, 1), (17, 3), (10007, 3), ((1 << 61) - 1, 2)]


@pytest.mark.parametrize("pk", SAMPLED)
def test_sampled_fields_match_the_schoolbook_reference(pk):
    F = gf_construct(*pk)
    G = FieldDesc("GF", *pk, F.modulus)  # equal, built apart
    p, k = pk
    rng = random.Random(F.order)
    for _ in range(300):
        a = F.coerce(tuple(rng.randrange(p) for _ in range(k)))
        b = F.coerce(tuple(rng.randrange(p) for _ in range(k)))
        c = G.coerce(a.coeffs)
        assert c == a and hash(c) == hash(a)
        n = rng.randrange(-3 * p, 0)
        assert F.coerce(n) == n
        assert (a * b).coeffs == _reference_mul(a.coeffs, b.coeffs, F)
        assert (a + b).coeffs == tuple((x + y) % p for x, y in
                                       zip(a.coeffs, b.coeffs))
        assert (a - b).coeffs == tuple((x - y) % p for x, y in
                                       zip(a.coeffs, b.coeffs))
        assert (-a).coeffs == tuple(-x % p for x in a.coeffs)
        if b:
            assert _reference_mul((a / b).coeffs, b.coeffs, F) == a.coeffs
            assert (b ** 3).coeffs == _reference_pow(b.coeffs, 3, F)


@pytest.mark.parametrize("pk", SAMPLED)
def test_powers_above_the_cap_match_repeated_products(pk):
    F = gf_construct(*pk)
    p, k = pk
    zero, one = F.zero(), F.one()
    assert zero ** 0 == one
    for n in (1, 2, 7):
        assert zero ** n == zero
    with pytest.raises(ZeroDivisionError):
        zero ** -1
    rng = random.Random(F.order)
    for _ in range(20):
        a = F.coerce(tuple(rng.randrange(p) for _ in range(k)))
        if not a:
            continue
        for n in range(-4, 9):
            expected, base = one, a if n >= 0 else a.inverse()
            for _ in range(abs(n)):
                expected = expected * base
            assert (a ** n).coeffs == expected.coeffs, (a, n)
        assert a ** (F.order - 1) == one


# -- residues: one fold, one extended Euclid, pow over GF(p) ----------------


@pytest.mark.parametrize("pk", [(4099, 1), (17, 3), (10007, 2), (3, 9)])
def test_inverses_above_the_cap_match_schoolbook_reference(pk):
    F = gf_construct(*pk)
    p, k = pk
    one = F.one().coeffs
    rng = random.Random(F.order)
    for _ in range(200):
        a = F.coerce(tuple(rng.randrange(p) for _ in range(k)))
        if a:
            inv = a.inverse()
            assert all(0 <= c < p for c in inv.coeffs)
            assert _reference_mul(a.coeffs, inv.coeffs, F) == one, a
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


def test_residue_inverse_is_none_off_the_units():
    p = 7
    mod = (2, 4, 1)  # (t - 1)(t - 2) over Z/7
    assert fields._tuple_inverse((0, 0), mod, p) is None
    assert fields._tuple_inverse((6, 1), mod, p) is None  # t - 1
    ring = SimpleNamespace(char=p, degree=2, modulus=mod)
    inv = fields._tuple_inverse((0, 1), mod, p)  # t is a unit
    assert _reference_mul((0, 1), inv, ring) == (1, 0)


@pytest.mark.parametrize("pk", [(5, 2), (17, 3), (10007, 2), (3, 9)])
def test_coerce_of_a_long_tuple_is_the_sum_of_its_terms(pk):
    F = gf_construct(*pk)
    p, k = pk
    t = F.coerce((0, 1))
    rng = random.Random(F.order)
    for n in (k, k + 1, 2 * k, 3 * k + 2):
        c = tuple(rng.randrange(-3 * p, 3 * p) for _ in range(n))
        expected = F.zero()
        for i, ci in enumerate(c):
            expected = expected + ci * t ** i
        assert F.coerce(c) == expected, c


@pytest.mark.parametrize("p", [2**127 - 1, 2**521 - 1, 10**18 + 3])
def test_is_square_over_large_prime_fields_matches_legendre(p):
    F = gf_construct(p, 1)
    rng = random.Random(p)
    for a in [1, -1, 2, 3, p - 2] + [rng.randrange(1, p) for _ in range(20)]:
        assert is_square(a, F) == (legendre_symbol(a, p) == 1), a


# -- refused inputs ----------------------------------------------------------


F7 = gf_construct(7, 1)


REFUSED = [
    (lambda: factorize(0), ValueError, "cannot factor zero"),
    (lambda: legendre_symbol(1, 2), ValueError, "2 is not an odd prime"),
    (lambda: fields.fraction_sqrt(-1), ValueError,
     "negative rational has no rational square root"),
    (lambda: fields.fraction_sqrt(Fraction(2, 9)), ValueError,
     "2/9 is not a perfect square"),
    (lambda: FieldDesc("ZZ"), ValueError, "unknown field kind 'ZZ'"),
    (lambda: FieldDesc("GF", 9, 1), ValueError, "9 is not prime"),
    (lambda: FieldDesc("GF", 3, 0), ValueError,
     "extension degree must be >= 1"),
    (lambda: FieldDesc("GF", 3, 2, (3, 0, 1)), ValueError,
     "modulus coefficients must be reduced mod p"),
    (lambda: QQ.order, ValueError, "order is defined for finite fields only"),
    (lambda: QQ.elements(), ValueError,
     "elements are defined for finite fields only"),
    (lambda: canonical_nonsquare(QQ), ValueError,
     "canonical nonsquare is defined for finite fields only"),
    (lambda: F7.coerce(1.5), ValueError, "cannot coerce 1.5 into GF(7)"),
    (lambda: F7.one() + gf_construct(11, 1).one(), ValueError,
     "finite field mismatch"),
    (lambda: F7.one() - gf_construct(4099, 1).one(), ValueError,
     "finite field mismatch"),
    # GF(p) enters GF(p^k) by its residues; no other field's elements do
    (lambda: F7.coerce(gf_construct(5, 1).one()), ValueError,
     "element belongs to a different field"),
    (lambda: gf_construct(5, 4).coerce(gf_construct(5, 2).one()), ValueError,
     "element belongs to a different field"),
]


@pytest.mark.parametrize("call, exc, message", REFUSED,
                         ids=[message for *_, message in REFUSED])
def test_refused_field_inputs(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
