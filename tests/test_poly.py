from __future__ import annotations

import hashlib
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest
import sympy

from a1degrees import forms, poly
from a1degrees.fields import QQ, FieldDesc, gf_construct
from a1degrees.poly import (MAX_EXPONENT, GroebnerBasis, Ideal, ParseError,
                            Polynomial, PolyRing, determinant, exact_quotient,
                            groebner_basis, ideal_quotient, normal_form,
                            parse_polynomial, resultant_univariate,
                            saturation, standard_monomials)
from a1degrees.poly import _enter, _prep_divisors, _public, _reduce_terms


def ring(*names, field=QQ):
    return PolyRing(field, tuple(names))


def _divides(a, b) -> bool:
    """Whether the exponent tuple a divides b."""
    return all(x <= y for x, y in zip(a, b))


def to_sympy(poly, syms):
    expr = sympy.Integer(0)
    for e, c in poly.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s ** k
    return sympy.expand(expr + sum(
        sympy.Rational(c.numerator, c.denominator) *
        sympy.prod([s ** k for s, k in zip(syms, e)])
        for e, c in poly.terms.items()))


# -- arithmetic and parsing --------------------------------------------------


def test_arithmetic_round_trips_through_parser():
    R = ring("x", "y")
    x, y = R.variable(0), R.variable(1)
    f = (x + y) ** 2 - 2 * x * y
    assert f == R.from_string("x^2 + y^2")
    assert R.from_string(str(f)) == f
    # A scalar enters the one product as a constant of the ring.
    assert not (f * 0).terms and not (0 * f).terms
    F7, F25 = gf_construct(7, 1), gf_construct(5, 2)
    g = ring("x", "y", field=F7).from_string("3*x^2 - y + 1")
    assert g * Fraction(1, 2) == g.ring.from_string("5*x^2 + 3*y + 4")
    assert not (g * 0).terms and not (0 * g).terms
    h = ring("x", "y", field=F25).from_string("x + 2")
    t = F25.coerce((0, 1))
    assert (h * t).terms == (t * h).terms == {(1, 0): t, (0, 0): 2 * t}
    for poly_, foreign in ((g, gf_construct(5, 1).one()), (f, F7.one())):
        with pytest.raises(ValueError):
            poly_ * foreign


@pytest.mark.parametrize("field", [QQ, gf_construct(5, 2)])
def test_subtraction_matches_adding_the_negation(field):
    R = ring("x", "y", field=field)
    rng = random.Random(11)

    def random_poly():
        return Polynomial.make(R, {(rng.randint(0, 2), rng.randint(0, 2)):
                                   rng.randint(-4, 4) for _ in range(5)})

    for _ in range(40):
        a, b = random_poly(), random_poly()
        assert a - b == a + (-b)
        assert not (a - a).terms
    assert R.variable(0) - 3 == R.variable(0) + R.constant(-3)


def test_derivative():
    R = ring("x")
    f = R.from_string("x^4 - 6*x^2 - 7*x - 6")
    assert f.derivative(0) == R.from_string("4*x^3 - 12*x - 7")


def school_derivative(terms: dict, i: int) -> dict:
    """d/dx_i of public terms, term by term in the field's arithmetic."""
    out = {}
    for e, c in terms.items():
        v = c * e[i]
        if v:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = v
    return out


@pytest.mark.parametrize("q", [(7, 1), (5, 2)], ids=["GF(7)", "GF(25)"])
def test_derivative_over_gf_is_the_schoolbook_one(q):
    # The kernel multiplies each coefficient by its exponent and reduces
    # the product: a term whose exponent p divides vanishes.  Over GF(25)
    # the coefficients are multiples of t.
    F = gf_construct(*q)
    p, t = F.char, F.coerce((0, 1)) if F.degree == 2 else F.one()
    R = ring("x", "y", field=F)
    f = R.from_string(f"x^{p}*y + 3*x^{p + 1} + x*y^3 - 1") * t
    # 3 * (p + 1) = 3 mod p
    assert f.derivative(0) == R.from_string(f"3*x^{p} + y^3") * t
    assert f.derivative(1) == R.from_string(f"x^{p} + 3*x*y^2") * t
    rng = random.Random(f"derivative:{F}")
    for g in [f] + [random_t_poly(R, rng, 12, 3 * p) for _ in range(20)]:
        for i in range(2):
            assert g.derivative(i).terms == school_derivative(g.terms, i)


def test_parser_rejects_implicit_multiplication():
    R = ring("x")
    with pytest.raises(ParseError) as info:
        R.from_string("2x + 1")
    assert info.value.position >= 0


def test_parser_reports_positions():
    R = ring("x")
    for text in ("x^", "x +", "(x", "x ** 2", "y + 1", "1.5*x"):
        with pytest.raises(ParseError) as info:
            R.from_string(text)
        assert isinstance(info.value.position, int)


def test_parser_caps_exponent_literals():
    R = ring("x", "y")
    assert R.from_string(f"x^{MAX_EXPONENT}") == R.variable(0) ** MAX_EXPONENT
    for text, at in ((f"x^{MAX_EXPONENT + 1}", 2), (f"y + 2^{10 ** 12}", 6),
                     ("x*(y - 1)^" + "9" * 5000, 10)):
        with pytest.raises(ParseError) as info:
            R.from_string(text)
        assert info.value.position == at


def test_packing_refuses_a_field_of_2_to_the_31():
    R = ring("x", "y")
    pk = R._packing
    top = 2 ** 31 - 1
    assert pk.unpack(pk.pack((top, 0))) == (top, 0)
    assert pk.unpack(pk.pack((top - 5, 5))) == (top - 5, 5)
    for e in ((2 ** 31, 0), (0, 2 ** 31), (2 ** 30, 2 ** 30)):
        with pytest.raises(ValueError, match=r"2\^31"):
            pk.pack(e)
    # Under elim1 the rows are a0 and the degree of the rest.
    elim = PolyRing(QQ, ("t", "x"), order="elim1")._packing
    assert elim.unpack(elim.pack((2 ** 30, 2 ** 30))) == (2 ** 30, 2 ** 30)


def test_a_product_past_the_bound_raises():
    R = ring("x", "y")
    big = Polynomial(R, {(2 ** 30, 0): Fraction(1)})
    assert big.leading_monomial() == (2 ** 30, 0)  # each factor packs
    for product in (lambda: big * big, lambda: big ** 2,
                    lambda: (big + 1) * (big - 1)):
        with pytest.raises(ValueError, match=r"2\^31"):
            product()
    half = Polynomial(R, {(2 ** 29, 2 ** 29 - 1): Fraction(2)})
    assert (half * half).terms == {(2 ** 30, 2 ** 30 - 2): Fraction(4)}
    with pytest.raises(ValueError, match=r"2\^31"):
        R.from_string("(((x^1000)^1000)^1000)^3 - x")


def test_lcms_past_half_the_bound_that_form_no_pair():
    # An lcm of degree 2N or more, N = 1.08 * 10^9, does not pack, and
    # needs no pair: in x, y the two leading monomials are coprime; in
    # x, y, z, when x^N*z joins, lcm(x*y^N, x^N*z) = x^N*y^N*z is not
    # coprime, but lcm(y*z, x^N*z) divides it.
    N = 1080000000
    big = "((({v}^1000)^1000)^1000*(({v}^1000)^1000)^80)"
    x, y = big.format(v="x"), big.format(v="y")
    G = groebner_basis(Ideal.of(ring("x", "y"), x, f"{y} + x"))
    assert [g.leading_monomial() for g in G.basis] == [(0, N), (N, 0)]
    G = groebner_basis(Ideal.of(ring("x", "y", "z"), "y*z", f"x*{y}",
                                f"{x}*z"))
    assert sorted(g.leading_monomial() for g in G.basis) == \
        [(0, 1, 1), (1, N, 0), (N, 0, 1)]


def test_a_needed_lcm_past_the_bound_raises():
    # lcm(x*y^N, x^N*y) = x^N*y^N, N = 2^30, is minimal and not coprime, so
    # its pair is needed, and it does not pack.
    R, N = ring("x", "y"), 2 ** 30
    gens = (Polynomial.make(R, {(1, N): 1}),
            Polynomial.make(R, {(N, 1): 1, (0, 0): 1}))
    with pytest.raises(ValueError) as info:
        groebner_basis(Ideal(R, gens))
    assert str(info.value) == \
        "a monomial of degree 2^31 or more is out of range"


def test_elim1_reduction_near_the_bound():
    # Under elim1 a reduction can raise the degree: t * x^a reduces by
    # t - x^b to x^(a + b), which must still pack.
    R = PolyRing(QQ, ("t", "x"), order="elim1")
    top = 2 ** 31 - 1
    f = Polynomial(R, {(1, top - 9): Fraction(3), (0, 7): Fraction(1)})
    assert normal_form(f, [R.from_string("t - x^9")]) == \
        Polynomial(R, {(0, top): Fraction(3), (0, 7): Fraction(1)})
    assert normal_form(f, [R.from_string("2*t - x^9 + x")]) == \
        Polynomial(R, {(0, top): Fraction(3, 2), (0, top - 8): Fraction(-3, 2),
                       (0, 7): Fraction(1)})
    with pytest.raises(ValueError, match=r"2\^31"):
        normal_form(f, [R.from_string("t - x^10")])


def test_map_to_merges_terms_that_fold_together():
    R = ring("x")
    D = ring("X", "Y")
    assert D.from_string("X - Y").map_to(R, [0, 0]) == R.zero()
    assert D.from_string("X + Y").map_to(R, [0, 0]) == R.from_string("2*x")
    assert D.from_string("X*Y - Y^2 + 3").map_to(R, [0, 0]) == R.constant(3)


def test_parser_caps_expansion(monkeypatch):
    R = ring("x", "y")
    assert len(R.from_string("(x+1)^1000").terms) == 1001
    monkeypatch.setattr(poly, "MAX_PARSE_PRODUCTS", 8)
    assert R.from_string("(x + 1)*(y - 1)*2") == \
        R.from_string("2*x*y - 2*x + 2*y - 2")
    for text, at in (("(x + 1)*(y - 1)*(x - y)", 15), ("(x - y)^3", 8)):
        with pytest.raises(ValueError, match="more than 8 term products "
                                             f"\\(at position {at}\\)"):
            R.from_string(text)


def test_parser_caps_expansion_by_coefficient_size():
    # As many term products as (x+1)^1000, but with a 61-bit coefficient
    # they swell to about 490 million weighted ones.
    R = PolyRing(QQ, ("x",))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="term products"):
        R.from_string("(1234567890123456789*x+1)^1000")
    assert time.perf_counter() - start < 2.0
    assert len(R.from_string("(1234567890123456789*x+1)^200").terms) == 201


@pytest.mark.parametrize("p, k", [(2 ** 2203 - 1, 1), (2 ** 255 - 19, 3)],
                         ids=["GF(2^2203-1)", "GF((2^255-19)^3)"])
def test_parser_weighs_gf_products_by_the_field_size(monkeypatch, p, k):
    if k > 1:
        # Every coefficient the parser makes is one residue mod p, so a
        # product over GF(p^k) weighs what it weighs over GF(p): 1 for the
        # 4 words of 2^255 - 19, as 4 * 4 < 128.
        monkeypatch.setattr(poly, "MAX_PARSE_PRODUCTS", 8)
        for field in (gf_construct(p, k), gf_construct(p, 1)):
            R = ring("x", "y", field=field)
            assert R.from_string("(x + 1)*(y - 1)*2") == \
                R.from_string("2*x*y - 2*x + 2*y - 2")
            with pytest.raises(ValueError, match="more than 8 term products"):
                R.from_string("(x + 1)*(y - 1)*(x - y)")
        return
    # Coefficients of 35 words weigh 10 per product.
    big = ring("x", "y", "z", field=gf_construct(p, k))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="term products"):
        big.from_string("(x+y+z+1)^32")
    assert time.perf_counter() - start < 1.0
    small = ring("x", "y", "z", field=gf_construct(7, 1))
    assert small.from_string("(x+y+z+1)^32") == \
        small.from_string("(x+y+z+1)^4") ** 8


@pytest.mark.parametrize("p, k", [(7, 1), (5, 2), (3, 3), (11, 2)])
def test_small_fields_weigh_one_per_term_product(monkeypatch, p, k):
    R = ring("x", "y", field=gf_construct(p, k))
    monkeypatch.setattr(poly, "MAX_PARSE_PRODUCTS", 8)
    assert R.from_string("(x + 1)*(y - 1)*2") == \
        R.from_string("2*x*y - 2*x + 2*y - 2")
    with pytest.raises(ValueError, match="more than 8 term products"):
        R.from_string("(x + 1)*(y - 1)*(x - y)")


@pytest.mark.parametrize("p, cap", [(None, 3), (2 ** 2203 - 1, 35)],
                         ids=["QQ", "GF(2^2203-1)"])
def test_parser_charges_each_one_term_product(monkeypatch, p, cap):
    # A product of two one-term factors is one weighted term product: 1
    # over QQ with small coefficients, 10 over a field of 35 words.
    R = ring("x", "y", "z", field=QQ if p is None else gf_construct(p, 1))
    monkeypatch.setattr(poly, "MAX_PARSE_PRODUCTS", cap)
    x, y, z = (R.variable(i) for i in range(3))
    assert R.from_string("2*x*y*z") == 2 * x * y * z
    assert R.from_string("x^2*y^2") == x * x * y * y
    for text, at in (("2*x*y*z*x", 7), ("(2*x)*(3*y)*z*x", 11)):
        with pytest.raises(ValueError, match=f"more than {cap} term products "
                                             f"\\(at position {at}\\)"):
            R.from_string(text)


PARSE_ERRORS = [
    ("2x + 1", "implicit multiplication is not allowed (at position 1)"),
    ("x^", "exponent must be an integer literal (at position 2)"),
    ("x +", "expected a number, variable or '(' (at position 3)"),
    ("(x", "expected ')' (at position 2)"),
    ("x ** 2", "expected a number, variable or '(' (at position 3)"),
    ("z + 1", "unknown variable 'z' (at position 0)"),
    ("1.5*x", "unexpected character '.' (at position 1)"),
    ("x^y", "exponent must be an integer literal (at position 2)"),
    ("-", "expected a number, variable or '(' (at position 1)"),
    ("x)", "unexpected trailing input (at position 1)"),
    ("(x + y", "expected ')' (at position 6)"),
    ("x + * y", "expected a number, variable or '(' (at position 4)"),
    ("", "expected a number, variable or '(' (at position 0)"),
    ("x^1001", "exponent 1001 exceeds 1000 (at position 2)"),
    ("(x + 1)(y - 1)",
     "implicit multiplication is not allowed (at position 7)"),
    # a refused character fails before the grammar error that precedes it
    ("x + ) $", "unexpected character '$' (at position 6)"),
]


@pytest.mark.parametrize("text,message", PARSE_ERRORS)
def test_parser_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        ring("x", "y").from_string(text)
    assert str(info.value) == message


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="the interpreter has no int digit limit")
def test_parser_refuses_an_integer_literal_past_the_digit_limit():
    # Like a refused character, the literal fails before any grammar error.
    R = ring("x", "y")
    limit = sys.get_int_max_str_digits()
    assert len(R.from_string("9" * limit + "*x").terms) == 1
    with pytest.raises(ParseError) as info:
        R.from_string("x + ) + " + "9" * (limit + 1))
    assert str(info.value) == "integer literal too long (at position 8)"


def random_expression(R, rng, depth):
    """(text, value, level): a random expression tree rendered as text and
    evaluated with Polynomial arithmetic; level is its precedence, 1 for a
    sum up to 5 for an atom.  Operands are parenthesized only where the
    grammar needs it, or at random."""
    def space():
        return rng.choice(("", "", " ", "  "))

    def operand(sub, level):
        text, value, own = sub
        if own < level or rng.random() < 0.1:
            text = f"({space()}{text}{space()})"
        return text, value

    kind = rng.choice(("atom",) * 3 + ("sum", "product", "sign", "power")
                      if depth else ("atom",))
    if kind == "atom":
        if rng.random() < 0.5:
            i = rng.randrange(R.nvars)
            return R.variables[i], R.variable(i), 5
        c = rng.choice((0, 1, 2, 3, 7, 12, 10 ** 20 + 3, 2 ** 64 + 1))
        return str(c), R.constant(c), 5
    if kind == "power":
        n = rng.choice((0, 1, 2, 3, 5))
        (base, value), n_text = operand(random_expression(R, rng, depth - 1),
                                        5), str(n)
        return f"{base}{space()}^{space()}{n_text}", value ** n, 4
    if kind == "sign":
        sign = rng.choice("+-")
        text, value = operand(random_expression(R, rng, depth - 1), 3)
        return f"{sign}{space()}{text}", -value if sign == "-" else value, 3
    left = operand(random_expression(R, rng, depth - 1),
                   1 if kind == "sum" else 2)
    right = operand(random_expression(R, rng, depth - 1),
                    2 if kind == "sum" else 3)
    if kind == "product":
        return f"{left[0]}{space()}*{space()}{right[0]}", \
            left[1] * right[1], 2
    op = rng.choice("+-")
    value = left[1] + right[1] if op == "+" else left[1] - right[1]
    return f"{left[0]}{space()}{op}{space()}{right[0]}", value, 1


def test_kernel_built_and_public_built_polynomials_agree():
    # A polynomial the kernel built answers the structural questions from
    # its kernel terms, and derives its public terms once, on first read.
    R = ring("x", "y")
    F7, F25 = gf_construct(7, 1), gf_construct(5, 2)
    R7, R25 = ring("x", "y", field=F7), ring("x", "y", field=F25)
    t = F25.coerce((0, 1))
    monic = groebner_basis(Ideal.of(R, "2*x - 3", "3*y^2 + 1")).basis
    pairs = [
        (monic[0], Polynomial.make(R, {(1, 0): 1, (0, 0): Fraction(-3, 2)})),
        (monic[1], Polynomial.make(R, {(0, 2): 1, (0, 0): Fraction(1, 3)})),
        (R7.from_string("3*x^2*y - x + 12"),
         Polynomial.make(R7, {(2, 1): 3, (1, 0): -1, (0, 0): 5})),
        (R25.from_string("x*y^2 - 2") * t,
         Polynomial.make(R25, {(1, 2): t, (0, 0): -2 * t})),
        (R.from_string("x*y - y*x"), R.zero()),
        (R25.from_string("5"), R25.zero()),
        (R.from_string("2") * Fraction(1, 3), R.constant(Fraction(2, 3))),
        (R7.from_string("-1"), R7.constant(6)),
    ]
    assert [_enter(g)[0] for g in monic] == [2, 3]
    for kernel, public in pairs:
        def answers(f):
            return (bool(f), f.is_zero(), f.total_degree(), f.is_constant(),
                    f.leading_monomial() if f else None)

        assert kernel._terms is None
        assert answers(kernel) == answers(public)
        assert kernel._terms is None  # answered from the kernel terms
        assert kernel == public and hash(kernel) == hash(public)
        assert str(kernel) == str(public)
        assert kernel.terms == public.terms
        assert kernel.terms is kernel.terms


@pytest.mark.parametrize("field", [QQ, gf_construct(5, 2)], ids=str)
def test_parser_fuzz_matches_polynomial_arithmetic(field):
    # Seeded random trees of signs, nesting, products and powers: each
    # parse is the tree evaluated, and keeps the kernel terms that
    # packing its public terms gives.
    R = ring("x", "y", field=field)
    rng = random.Random(f"grammar:{field}")
    for _ in range(400):
        text, value, _ = random_expression(R, rng, rng.randint(0, 5))
        parsed = R.from_string(text)
        assert parsed == value, text
        assert _enter(parsed) == _enter(Polynomial(R, dict(parsed.terms)))


@pytest.mark.parametrize("field", [QQ, gf_construct(5, 2)], ids=str)
def test_parser_agrees_with_arithmetic(field):
    R = ring("x", "y", field=field)
    x, y = R.variable(0), R.variable(1)
    cases = {
        "-x^2 + 3*x*y - y + 2 - x^2": -2 * x ** 2 + 3 * x * y - y + 2,
        "(x - y)^3 - (x + 1)*(y - 1) + -x": (x - y) * (x - y) * (x - y)
        - (x + 1) * (y - 1) - x,
        "3*x^2*y^4 - x^0 + (2*y)^2 - 4*y^2": 3 * x * x * y * y * y * y - 1,
        "x - x + 0": R.zero(),
        "(-x)^3 + x^3": R.zero(),
        "0^0 + 0^2": R.one(),
    }
    for text, expected in cases.items():
        assert R.from_string(text) == expected, text


def test_power_of_a_single_term_runs_the_squaring_chain(monkeypatch):
    # A monomial's power takes the one path every power takes, so a bound
    # on the products (the parser's) bounds it too: t^7 is t * t^2 * t^4,
    # two squarings and two products.
    R = ring("x", "y", field=gf_construct(5, 2))
    t = R.from_string("3*x*y^2")
    products = []
    original = poly._mul_into

    def counting(*args):
        products.append(len(args[1]) * len(args[2]))
        return original(*args)

    monkeypatch.setattr(poly, "_mul_into", counting)
    assert (t ** 7).terms == {(7, 14): R.field.coerce(3) ** 7}
    assert products == [1, 1, 1, 1]
    products.clear()
    assert t ** 0 == R.one() and products == []


def test_powers_of_polynomials_match_repeated_products():
    # Three terms each: over GF(25) a 1 + t coefficient spans both slots of
    # its kernel int, and over QQ denominators 2 and 3 make den ** n scale
    # the power's kernel terms.  f ** 0 is 1.
    F = gf_construct(5, 2)
    R, Q = ring("x", "y", field=F), ring("x", "y")
    x, y = R.variable(0), R.variable(1)
    X, Y = Q.variable(0), Q.variable(1)
    for f in (F.coerce((1, 1)) * x * y + 2 * y * y - 3,
              Fraction(1, 2) * X * X - Fraction(2, 3) * X * Y + 5):
        expected = f.ring.one()
        for n in range(10):
            assert (f ** n).terms == expected.terms, (f, n)
            expected = expected * f


def test_equality_with_a_scalar_outside_the_ring_is_false():
    gf7, gf5 = gf_construct(7, 1), gf_construct(5, 1)
    R7, RQ = ring("x", field=gf7), ring("x")
    for poly_, scalar in ((R7.one(), gf5.one()), (RQ.one(), gf7.one()),
                          (R7.one(), Fraction(1, 7))):
        assert not poly_ == scalar and poly_ != scalar
        assert not scalar == poly_ and scalar != poly_
    # scalars the ring holds still compare by value
    assert R7.constant(3) == gf7.coerce(3) == R7.constant(10)
    assert RQ.constant(Fraction(1, 7)) == Fraction(1, 7)
    assert R7.one() == Fraction(8, 1) and R7.zero() == 0


def test_rings_and_polynomials_print():
    F = gf_construct(5, 2)
    R = ring("x", "y", field=F)
    x, y = R.variable(0), R.variable(1)
    t = F.coerce((0, 1))
    # A coefficient with a sum or a t is parenthesized before its monomial.
    assert str(F.coerce((1, 1)) * x + y) == "(t + 1)*x + y"
    assert str(t * x) == "(t)*x" and str(2 * t * x) == "(2*t)*x"
    assert str(R) == "GF(25)[x,y]"
    assert repr(x) == "<x in GF(25)[x,y]>"
    assert str(R.zero()) == "0"
    Q = ring("x")
    X = Q.variable(0)
    assert str(3 - X) == "-x + 3"
    assert (X == object()) is False
    for S in (Q, ring("x", field=gf_construct(7, 1)), ring("x", field=F)):
        assert exact_quotient(S.zero(), S.variable(0)) == S.zero()


@pytest.mark.parametrize("field", [QQ, gf_construct(5, 2)], ids=str)
def test_equal_polynomials_hash_alike(field):
    R = ring("x", "y", field=field)
    x, y = R.variable(0), R.variable(1)
    built = [(x + y) ** 2, x * x + 2 * x * y + y ** 2,
             R.from_string("y^2 + 2*y*x + x^2"),
             (x + y) * (y + x) + x - x]
    assert all(f == built[0] and hash(f) == hash(built[0]) for f in built)
    keys = {built[0]: "square", x * y: "product"}
    assert [keys[f] for f in built] == ["square"] * len(built)
    assert keys[y * x] == "product" and x + y not in keys


def test_parser_handles_fractions_and_unary_minus():
    R = ring("x")
    f = R.from_string("-x^2 + 3*x - 1")
    assert f.terms[(2,)] == Fraction(-1)
    assert f.terms[(0,)] == Fraction(-1)


def test_exact_quotient():
    R = ring("x", "y")
    f = R.from_string("x^2 - y^2")
    g = R.from_string("x - y")
    assert exact_quotient(f, g) == R.from_string("x + y")
    with pytest.raises(ValueError):
        exact_quotient(R.from_string("x^2 + 1"), g)


# -- Groebner bases ----------------------------------------------------------


def gb_strings(G):
    return sorted(str(g) for g in G.basis)


def test_groebner_basis_examples():
    R1 = ring("x")
    G = groebner_basis(Ideal.of(R1, "x^2 - 1"))
    assert gb_strings(G) == ["x^2 - 1"]

    R2 = ring("x", "y")
    G = groebner_basis(Ideal.of(R2, "x - y", "y^2"))
    assert set(gb_strings(G)) == {"x - y", "y^2"}

    G = groebner_basis(Ideal.of(R1, "1"))
    assert gb_strings(G) == ["1"]


def test_groebner_basis_is_reduced():
    R = ring("x", "y", "z")
    G = groebner_basis(Ideal.of(R, "x^2 + y^2 + z^2 - 1",
                                "x*y - z", "x - z^2"))
    lms = [g.leading_monomial() for g in G.basis]
    for g in G.basis:
        assert g.leading_coefficient() == Fraction(1)
        for e in g.terms:
            others = [lm for lm in lms if lm != g.leading_monomial()]
            assert not any(all(a >= b for a, b in zip(e, lm)) for lm in others)


def test_groebner_basis_permutation_invariant():
    R = ring("x", "y")
    gens = ["x^2 + y^2 - 1", "x*y - 1", "x^3 - y"]
    expected = gb_strings(groebner_basis(Ideal.of(R, *gens)))
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        shuffled = [gens[i] for i in perm]
        assert gb_strings(groebner_basis(Ideal.of(R, *shuffled))) == expected


SYMPY_IDEALS = [
    (("x", "y"), ["x^2 + y^2 - 1", "x*y - 1"]),
    (("x", "y"), ["x^2 - y", "y^2 - x"]),
    (("x", "y", "z"), ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"]),
    (("x", "y", "z"), ["x^2 - y*z", "y^2 - x*z", "z^2 - x*y"]),
    (("x", "y"), ["2*x^2 - 3*y", "6*y^2 - x - 1"]),
    # Repeated, divisible and zero generators.
    (("x", "y"), ["x^2 - y", "x^2 - y", "y^3 - x"]),
    (("x", "y"), ["x^2 + y^2 - 1", "x^3*y + y^2 - 1", "x*y - 1"]),
    (("x", "y"), ["x*y - 1", "0", "x^2 - y"]),
]


@pytest.mark.parametrize("names,gens", SYMPY_IDEALS)
def test_groebner_basis_matches_sympy(names, gens):
    R = ring(*names)
    syms = sympy.symbols(names)
    def primitive(expr):
        content, prim = sympy.Poly(expr, *syms).primitive()
        return sympy.expand(prim.as_expr() * sympy.sign(content))

    mine = {primitive(to_sympy(g, syms))
            for g in groebner_basis(Ideal.of(R, *gens)).basis}
    theirs = {primitive(e) for e in
              sympy.groebner([sympy.sympify(g.replace("^", "**")) for g in gens],
                             *syms, order="grevlex").exprs}
    assert mine == theirs


def recorded_triples(monkeypatch):
    """The `_prep_divisor` triples built from here on."""
    prepared = []
    original = poly._prep_divisor

    def recording(*args):
        k, triple = original(*args)
        prepared.append(triple)
        return k, triple

    monkeypatch.setattr(poly, "_prep_divisor", recording)
    return prepared


def test_groebner_basis_prepares_each_joining_polynomial_once(monkeypatch):
    R = ring("x", "y", "z")
    prepared = recorded_triples(monkeypatch)
    G = groebner_basis(Ideal.of(R, "x^2 + y^2 + z^2 - 1", "x*y - z",
                                "x - z^2", "x*y - z"))
    # Each nonzero remainder is prepared when it joins, as a primitive
    # integer triple; the repeated generator joins never, and the tail
    # reduction, which changes some element, prepares nothing.
    for lm, lc, tail in prepared:
        coeffs = [lc] + [c for _, c in tail]
        assert all(type(c) is int for c in coeffs)
        assert lc > 0 and math.gcd(*coeffs) == 1
    unpack = R._packing.unpack
    monic = [Polynomial(R, {unpack(lm): Fraction(1),
                            **{unpack(e): Fraction(c, lc) for e, c in tail}})
             for lm, lc, tail in prepared]
    assert len(monic) == len(set(monic)) >= len(G.basis)
    lms = {g.leading_monomial() for g in monic}
    assert all(g.leading_monomial() in lms for g in G.basis)
    assert any(g not in monic for g in G.basis)


def test_groebner_basis_keeps_coefficients_small_on_sparse_qq(monkeypatch):
    # Under the normal strategy this ideal's S-polynomials chain into
    # elements with 800- to 2,300-bit coefficients before the basis
    # collapses to one with 43-bit ones; the sugar strategy stays under 64.
    R = ring("x", "y", "z")
    prepared = recorded_triples(monkeypatch)
    I = Ideal.of(R, "x^3*y^2*z^3 - 2*x^2*y^2*z^2 + y^3 - 2*x",
                 "-x^3*y^2*z^3 + x^3*y^2*z^2 + 3*x*y^3 + 2*x",
                 "3*x^3*y*z^3 - y^2*z^3 - 2*x*z")
    G = groebner_basis(I)
    assert len(G.basis) == 19
    assert all(normal_form(f, G).is_zero() for f in I.generators)
    bits = max(abs(c).bit_length() for _, lc, tail in prepared
               for c in [lc] + [c for _, c in tail])
    assert bits < 128


ELIM1_SWELL = ("-x*y^2 - x^3*y^2 + 2*x*y*z^2 + 2*x*y^2*z^2",
               "x^3*y*z + 2*x^2*z",
               "3*x^3*y - 2*y^2*z^2 + 2*x*z - 3*x^2*z^3")


def test_groebner_basis_of_a_swelling_elim1_ideal():
    # S-polynomials of this ideal chain to 1,600-bit coefficients before
    # the basis collapses to 13-bit ones.  The digest pins the reduced
    # basis the Fraction kernel gave, which sympy's groebner under the
    # matching ProductOrder also gives (in about 4 s).
    R = PolyRing(QQ, ("x", "y", "z"), order="elim1")
    I = Ideal.of(R, *ELIM1_SWELL)
    start = time.perf_counter()
    G = groebner_basis(I)
    elapsed = time.perf_counter() - start
    assert sorted(g.leading_monomial() for g in G.basis) == [
        (0, 3, 8), (0, 4, 7), (0, 5, 6), (0, 6, 4), (0, 7, 3), (0, 8, 2),
        (1, 0, 2), (1, 1, 1), (1, 2, 0), (2, 0, 1), (3, 1, 0)]
    digest = hashlib.sha256("\n".join(sorted(str(g) for g in G.basis))
                            .encode()).hexdigest()
    assert digest == \
        "7779b34437fb0420668941ed9d329b88eaf1ce2b7d83c9c71eb0aa3aad180aed"
    assert elapsed < 1.5


def quotients_of(R, steps, s, n):
    """The n quotients of a `_reduce_terms` step log that ended at scale s,
    as public term dicts of the ring R."""
    quotients = [{} for _ in range(n)]
    for i, shift, c, t in steps:
        quotients[i][shift] = c * (s // t)
    return [_public(R, q, 1) for q in quotients]


@pytest.mark.parametrize("field", [QQ, gf_construct(5, 2), gf_construct(3, 3)],
                         ids=str)
def test_division_identity_with_the_scale(field):
    # scale * f = rem + sum(q_i * g_i), g_i the divisors rebuilt from the
    # prepared triples: over QQ the primitive integer multiples, over GF the
    # monic multiples, whose u is the int 1 and whose scale stays 1.
    R = ring("x", "y", "z", field=field)
    rng = random.Random(f"scale:{field}")
    qq = field.kind == "QQ"
    units = [Fraction(-5, 7), Fraction(4)] if qq else \
        [rng.choice(list(field.elements())[1:]) for _ in range(2)]
    scaled = 0
    for _ in range(6):
        gs = [random_dense(R, rng, 2) for _ in range(3)]
        f = random_dense(R, rng, 4)
        if qq:  # the kernel reduces integer terms
            f = Polynomial(R, {e: int(c) for e, c in f.terms.items()})
            gs = [with_denominators(g, rng) for g in gs]
        divisors = _prep_divisors(gs)
        steps = []
        packed = _enter(f)[1]
        kernel_rem, scale = _reduce_terms(R, packed, divisors, steps)
        rem = Polynomial(R, _public(R, kernel_rem, 1))
        total = rem
        quotients = quotients_of(R, steps, scale, len(divisors))
        for (lm, u, tail), q, g in zip(divisors, quotients, gs):
            divisor = Polynomial(R, _public(R, {lm: u, **dict(tail)}, 1))
            assert divisor * g.leading_coefficient() == g * u
            if not qq:
                assert type(u) is int and u == 1
            total += Polynomial(R, q) * divisor
        assert total == f * scale
        lms = [R._packing.unpack(lm) for lm, _, _ in divisors]
        assert not any(_divides(lm, e) for lm in lms for e in rem.terms)
        scaled += scale != 1
        # A constant multiple of a divisor prepares to the same triple.
        for c in units:
            prepared = _prep_divisors([c * g for g in gs])
            assert prepared == divisors
            again = []
            assert _reduce_terms(R, packed, prepared, again) == \
                (kernel_rem, scale)
            assert again == steps
            g = gs[0]
            assert exact_quotient(f * g, c * g) == f * (1 / c)
            # An exact division never rescales: exact_quotient relies on it.
            product = _enter(f * g)[1]
            assert _reduce_terms(R, product, prepared[:1]) == ({}, 1)
    assert scaled if qq else not scaled


@pytest.mark.parametrize("field", [QQ, gf_construct(7, 1), gf_construct(5, 2)],
                         ids=str)
def test_groebner_basis_keeps_the_triples_preparation_would_make(field):
    # A computed basis hands Buchberger's reduced triples to its normal
    # forms; preparing its public polynomials gives the same list.
    R = ring("x", "y", "z", field=field)
    rng = random.Random(f"triples:{field}")
    for gens in [[random_dense(R, rng, 2) for _ in range(3)],
                 [R.from_string("x*y - 1"), R.from_string("x^2 + z")],
                 [R.from_string("x - 1"), R.from_string("x + 1")]]:
        gb = groebner_basis(Ideal(R, tuple(gens)))
        assert gb._divisors == _prep_divisors(gb.basis)


def test_normal_form_examples():
    R = ring("x")
    G = groebner_basis(Ideal.of(R, "x^2 - 1"))
    assert normal_form(R.from_string("x^3"), G) == R.from_string("x")
    assert normal_form(R.from_string("x^2 - 1"), G).is_zero()

    G4 = groebner_basis(Ideal.of(R, "x^4 - 6*x^2 - 7*x - 6"))
    assert normal_form(R.from_string("x^4"), G4) == \
        R.from_string("6*x^2 + 7*x + 6")


def test_normal_form_is_stable_under_ideal_shifts():
    R = ring("x", "y")
    I = Ideal.of(R, "x^2 - y", "y^2 - 2")
    G = groebner_basis(I)
    f = R.from_string("x^3*y + x*y^2 - 5")
    h = I.generators[0] * R.from_string("x*y - 3") + I.generators[1]
    assert normal_form(f, G) == normal_form(f + h, G)


# -- colon ideals and saturation --------------------------------------------


def same_ideal(I, J):
    return gb_strings(groebner_basis(I)) == gb_strings(groebner_basis(J))


def test_normal_form_checks_the_ring_of_every_divisor():
    R = ring("x", "y")
    f = R.from_string("x^2*y + 3*y^2 + 1")
    for other in (ring("x", "y", "z").from_string("y*z - 1"),
                  ring("x", "y", field=gf_construct(7, 1)).from_string("y - 1")):
        with pytest.raises(ValueError, match="polynomial ring mismatch"):
            normal_form(f, [R.from_string("y - 1"), other])


def test_ideal_quotient_examples():
    R = ring("x")
    assert same_ideal(ideal_quotient(Ideal.of(R, "x^2"), Ideal.of(R, "x")),
                      Ideal.of(R, "x"))
    Rxy = ring("x", "y")
    assert same_ideal(ideal_quotient(Ideal.of(Rxy, "x*y"), Ideal.of(Rxy, "x")),
                      Ideal.of(Rxy, "y"))
    # univariate cofactor
    product = "(x^2 + x + 1)*(x - 3)*(x + 2)"
    f = R.from_string("x^2 + x + 1") * R.from_string("x - 3") \
        * R.from_string("x + 2")
    cofactor = R.from_string("x^2 + x + 1") * R.from_string("x + 2")
    assert same_ideal(ideal_quotient(Ideal(R, (f,)), Ideal.of(R, "x - 3")),
                      Ideal(R, (cofactor,)))


def test_ideal_quotient_contains_original_ideal():
    R = ring("x", "y")
    I = Ideal.of(R, "x^2*y", "x*y^2")
    Q = ideal_quotient(I, Ideal.of(R, "x", "y"))
    G = groebner_basis(Q)
    for g in I.generators:
        assert normal_form(g, G).is_zero()


def test_saturation_examples():
    R = ring("x")
    assert same_ideal(saturation(Ideal.of(R, "x^2"), Ideal.of(R, "x")),
                      Ideal.of(R, "1"))
    assert same_ideal(saturation(Ideal.of(R, "x^2*(x - 1)"), Ideal.of(R, "x")),
                      Ideal.of(R, "x - 1"))
    I = Ideal.of(R, "x^3 - x")
    assert same_ideal(saturation(I, Ideal.of(R, "1")), I)


def test_saturation_contains_quotient_contains_ideal():
    R = ring("x", "y")
    I = Ideal.of(R, "x^2*y - x^2", "y^2 - y")
    J = Ideal.of(R, "y - 1")
    Q = ideal_quotient(I, J)
    S = saturation(I, J)
    GQ, GS = groebner_basis(Q), groebner_basis(S)
    for g in I.generators:
        assert normal_form(g, GQ).is_zero()
    for g in Q.generators:
        assert normal_form(g, GS).is_zero()


# -- standard monomials ------------------------------------------------------


def test_standard_monomials_examples():
    R = ring("x")
    G = groebner_basis(Ideal.of(R, "x^4 - 6*x^2 - 7*x - 6"))
    assert [str(m) for m in standard_monomials(G)] == ["1", "x", "x^2", "x^3"]

    G1 = groebner_basis(Ideal.of(R, "x - 3"))
    assert [str(m) for m in standard_monomials(G1)] == ["1"]

    Rxy = ring("x", "y")
    with pytest.raises(ValueError, match="zeros are not isolated"):
        standard_monomials(groebner_basis(Ideal.of(Rxy, "x*y")))


def test_standard_monomial_count_equals_univariate_degree():
    R = ring("x")
    rng = random.Random(7)
    for _ in range(10):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-5, 5) for _ in range(deg)]
        text = f"x^{deg}" + "".join(
            f" + {c}*x^{i}" if i else f" + {c}"
            for i, c in enumerate(coeffs) if c)
        G = groebner_basis(Ideal.of(R, text))
        assert len(standard_monomials(G)) == deg


def test_standard_monomials_of_point_ideal():
    R = ring("x", "y")
    G = groebner_basis(Ideal.of(R, "x - 1", "y + 2"))
    assert [str(m) for m in standard_monomials(G)] == ["1"]


def brute_force_stairs(gb):
    """The standard monomials of gb counted from its basis's leading
    monomials alone: the exponent vectors below each variable's least
    pure-power leading exponent that no leading monomial divides, ascending
    in the ring order; [] for the unit ideal, None if some variable has no
    pure power among the leading monomials."""
    R = gb.ideal.ring
    lms = [g.leading_monomial() for g in gb.basis]
    if any(not any(e) for e in lms):
        return []
    bounds = []
    for i in range(R.nvars):
        powers = [e[i] for e in lms if e[i] == sum(e) > 0]
        if not powers:
            return None
        bounds.append(min(powers))
    return sorted((e for e in itertools.product(*map(range, bounds))
                   if not any(_divides(lm, e) for lm in lms)),
                  key=R._packing.pack)


def staircase_generators(rng, R, kind):
    """Seeded generators in R, coefficients drawn from QQ's small fractions
    or from all of GF(q), t included, and the stair count each kind fixes
    (None if it fixes none).  "power": c_i * x_i^d_i plus random terms of
    lower degree, whose top forms meet only at 0, so prod d_i stairs under
    any order; "dense": random terms up to degree d_i; "point": a random
    rational point's ideal m, 1 stair; "point^2": m^2, n + 1 stairs;
    "curve": "power" without its last generator, zeros not isolated;
    "line": multiples of the ideal of a line {x_j = c_j : j != i} by
    random polynomials with a power of x_i, whose leading monomials mix
    x_i with the other variables, zeros not isolated (in one variable, no
    generators: the zero ideal)."""
    n, field = R.nvars, R.field
    if field is QQ:
        def scalar():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    else:
        elements = list(field.elements())

        def scalar():
            return rng.choice(elements)

    def nonzero():
        c = scalar()
        return c if c else nonzero()

    def terms(d):  # random terms of degree below d
        return Polynomial.make(R, {
            e: scalar() for e in itertools.product(range(d), repeat=n)
            if sum(e) < d and rng.random() < 0.5})

    x = [R.variable(i) for i in range(n)]
    shape = [rng.randint(1, 3) for _ in range(n)]
    if kind in ("power", "curve"):
        gens = [nonzero() * v ** d + terms(d) for v, d in zip(x, shape)]
        if kind == "curve":
            return gens[:-1], None
        return gens, math.prod(shape)
    if kind == "dense":
        return [scalar() * v ** d + terms(d + 1)
                for v, d in zip(x, shape)], None
    if kind == "line":
        i = rng.randrange(n)
        return [(v - scalar()) * (x[i] ** rng.randint(1, 3) + terms(2))
                for j, v in enumerate(x) if j != i], None
    m = [v - scalar() for v in x]
    if kind == "point":
        return m, 1
    return [a * b for a, b in itertools.combinations_with_replacement(m, 2)], \
        n + 1


@pytest.mark.parametrize("field", [QQ, gf_construct(7, 1), gf_construct(3, 2)],
                         ids=str)
def test_stairs_are_the_brute_force_staircase(field):
    # GroebnerBasis._stairs walks the staircase; the oracle reads it off the
    # leading monomials' box, in 1-3 variables and both orders.
    # standard_monomials is its wrap, one-term polynomials in the same order.
    rng = random.Random(f"stairs:{field}")
    seen = {"isolated": 0, "not isolated": 0}
    for k in range(60):
        n = 1 + k % 3
        kind = ("power", "dense", "point", "point^2", "curve")[k // 3 % 5]
        if kind == "curve" and n == 1:
            kind = "power"
        R = PolyRing(field, tuple("xyz"[:n]),
                     order="elim1" if n > 1 and k % 2 else "grevlex")
        gens, count = staircase_generators(rng, R, kind)
        gb = groebner_basis(Ideal(R, tuple(g for g in gens if g)))
        expected = brute_force_stairs(gb)
        if expected is None:
            assert kind in ("dense", "curve")
            for walk in (lambda: gb._stairs, lambda: standard_monomials(gb)):
                with pytest.raises(ValueError, match="zeros are not isolated"):
                    walk()
            seen["not isolated"] += 1
            continue
        assert kind != "curve"
        assert [R._packing.unpack(m) for m in gb._stairs] == expected
        assert standard_monomials(gb) == [
            Polynomial.make(R, {e: 1}) for e in expected]
        assert count is None or len(expected) == count
        seen["isolated"] += 1
    assert seen["isolated"] >= 40 and seen["not isolated"] >= 8, seen
    # Leading monomials with no pure power of some variable, in 1-3
    # variables under both orders: every walk raises.  A leading monomial
    # that mixes a variable with others is no pure power of it.
    mixed = 0
    for k in range(18):
        n = 1 + k % 3
        R = PolyRing(field, tuple("xyz"[:n]),
                     order="elim1" if n > 1 and k // 3 % 2 else "grevlex")
        gens, _ = staircase_generators(rng, R, "line")
        gb = (groebner_basis(Ideal(R, tuple(gens))) if gens else
              GroebnerBasis(Ideal(R, (R.zero(),)), ()))
        assert brute_force_stairs(gb) is None
        for walk in (lambda: gb._stairs, lambda: standard_monomials(gb)):
            with pytest.raises(ValueError, match="zeros are not isolated"):
                walk()
        mixed += any(max(e) < sum(e) for e in
                     (g.leading_monomial() for g in gb.basis))
    assert mixed >= 8, mixed


def test_the_unit_ideal_has_no_stairs():
    # The quotient by (1) is 0, whether the basis is reduced or not.
    R = ring("x", "y")
    x, y = R.variable(0), R.variable(1)
    for G in (groebner_basis(Ideal.of(R, "x + 1", "x - 1")),
              GroebnerBasis(Ideal(R, (R.one(), x, y)), (R.one(), x, y)),
              GroebnerBasis(Ideal(R, (x, R.one())), (x, R.one()))):
        assert G._stairs == ()
        assert standard_monomials(G) == []


def test_a_curve_of_zeros_raises_on_every_walk():
    # A failed walk is not cached: every call raises again.
    G = groebner_basis(Ideal.of(ring("x", "y"), "x*y"))
    for _ in range(2):
        with pytest.raises(ValueError, match="zeros are not isolated"):
            G._stairs
        with pytest.raises(ValueError, match="zeros are not isolated"):
            standard_monomials(G)


# -- resultants --------------------------------------------------------------


def test_resultant_examples():
    R = ring("x")
    assert resultant_univariate(R.from_string("x - 4"),
                                R.from_string("x - 9")) == Fraction(5)
    assert resultant_univariate(R.from_string("x^2"),
                                R.from_string("x - 1")) == Fraction(1)
    assert resultant_univariate(R.constant(3), R.constant(-2)) == 1


def test_resultant_matches_sympy_on_random_polynomials():
    R = ring("x")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for _ in range(20):
        def rand_poly():
            deg = rng.randint(1, 4)
            coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 3)]
            return coeffs
        fc, gc = rand_poly(), rand_poly()
        f = R.from_string(" + ".join(f"{c}*x^{i}" for i, c in enumerate(fc) if c)
                          or "0*x")
        g = R.from_string(" + ".join(f"{c}*x^{i}" for i, c in enumerate(gc) if c)
                          or "0*x")
        if f.is_zero() or g.is_zero():
            continue
        expected = sympy.resultant(sympy.Poly(list(reversed(fc)), x),
                                   sympy.Poly(list(reversed(gc)), x))
        # Sylvester orientation: our convention flips the sign when both
        # degrees are odd
        sign = -1 if f.total_degree() % 2 and g.total_degree() % 2 else 1
        assert resultant_univariate(f, g) == Fraction(sign * int(expected))


def test_resultant_vanishes_iff_common_root():
    R = ring("x")
    f = R.from_string("(x - 2)*(x + 1)")
    g = R.from_string("(x - 2)*(x - 5)")
    h = R.from_string("(x - 3)*(x - 5)")
    assert resultant_univariate(f, g) == Fraction(0)
    assert resultant_univariate(f, h) != Fraction(0)


def test_resultant_of_binary_quadratic_forms():
    # two squared linear forms in complementary variables
    R = ring("z3", "z4")
    g1 = R.from_string("3*z4^2")
    g2 = R.from_string("3*z3^2")
    assert resultant_univariate(g1, g2) == Fraction(81)


def test_resultant_rejects_genuinely_multivariate_input():
    R = ring("x", "y")
    with pytest.raises(ValueError):
        resultant_univariate(R.from_string("x*y + 1"), R.from_string("x - 1"))


# -- finite field coefficients ----------------------------------------------


def test_groebner_over_gf13():
    F13 = gf_construct(13, 1)
    R = ring("x", "y", field=F13)
    G = groebner_basis(Ideal.of(R, "x^2 + y", "y^2 + 12"))
    mons = standard_monomials(G)
    assert len(mons) == 4
    f = R.from_string("x^2 + y")
    assert normal_form(f, G).is_zero()


def test_ring_rejects_inexact_fields():
    from a1degrees.fields import RR
    with pytest.raises(ValueError):
        PolyRing(RR, ("x",))


# -- the division kernel against independent oracles -------------------------


def random_dense(R, rng, degree):
    """All monomials of total degree <= degree, with random coefficients."""
    F = R.field
    terms = {}
    for e in itertools.product(range(degree + 1), repeat=R.nvars):
        if sum(e) <= degree:
            if F.kind == "QQ":
                terms[e] = rng.randint(-3, 3)
            else:
                terms[e] = F.coerce(tuple(rng.randrange(F.char)
                                          for _ in range(F.degree)))
    return Polynomial.make(R, terms)


def sympy_poly(poly, syms, modulus=None):
    def coeff(c):
        return sympy.Rational(c.numerator, c.denominator) if modulus is None \
            else int(c.coeffs[0])
    expr = sum((coeff(c) * sympy.prod([s ** k for s, k in zip(syms, e)])
                for e, c in poly.terms.items()), sympy.Integer(0))
    return sympy.Poly(expr, *syms, modulus=modulus)


def with_denominators(poly, rng):
    """poly with each coefficient divided by a random integer in 1..9."""
    return Polynomial(poly.ring, {e: c / rng.randint(1, 9)
                                  for e, c in poly.terms.items()})


@pytest.mark.parametrize("degrees", [(2, 2), (2, 2, 1), (2, 1, 1, 1)])
@pytest.mark.parametrize("p", [None, 7])
def test_normal_form_matches_sympy_reduced(degrees, p):
    names = tuple(f"x{i}" for i in range(len(degrees)))
    R = ring(*names, field=QQ if p is None else gf_construct(p, 1))
    syms = sympy.symbols(names)
    rng = random.Random(len(degrees) * 10 + (p or 0))
    # Over QQ, three more rounds give f and the generators rational
    # coefficients, so that the kernel clears their denominators.
    for rational in [False] * 3 + [True] * 3 * (p is None):
        gens = [random_dense(R, rng, d) for d in degrees]
        if not all(gens):
            continue
        f = random_dense(R, rng, 4)
        if rational:
            gens = [with_denominators(g, rng) for g in gens]
            f = with_denominators(f, rng)
        mine = normal_form(f, groebner_basis(Ideal(R, tuple(gens))))
        opts = {"order": "grevlex"} if p is None else \
            {"order": "grevlex", "modulus": p}
        gb = sympy.groebner([sympy_poly(g, syms, p).as_expr() for g in gens],
                            *syms, **opts)
        _, theirs = sympy.reduced(sympy_poly(f, syms, p).as_expr(),
                                  list(gb.exprs), *syms, **opts)
        assert sympy_poly(mine, syms, p) == sympy.Poly(theirs, *syms,
                                                        modulus=p)


@pytest.mark.parametrize("q", [(5, 2), (3, 3)])
def test_division_identity_over_extension_fields(q):
    # The kernel divides by the monic multiples of the divisors, so the
    # quotient by a divisor g as given is q_g / lc(g).
    R = ring("x", "y", "z", field=gf_construct(*q))
    rng = random.Random(q[0] ** q[1])
    for _ in range(4):
        f = random_dense(R, rng, 4)
        gs = [random_dense(R, rng, 2) for _ in range(3)]
        steps = []
        rem, s = _reduce_terms(R, _enter(f)[1], _prep_divisors(gs), steps)
        assert s == 1
        rem = Polynomial(R, _public(R, rem, 1))
        total = rem
        for g, q_terms in zip(gs, quotients_of(R, steps, s, len(gs))):
            total = total + Polynomial(R, q_terms) * \
                (1 / g.leading_coefficient()) * g
        assert total == f
        lms = [g.leading_monomial() for g in gs]
        for e in rem.terms:
            assert not any(all(a >= b for a, b in zip(e, lm)) for lm in lms)


@pytest.mark.parametrize("field", [QQ, gf_construct(7, 1), gf_construct(5, 2),
                                   gf_construct(3, 3)])
def test_exact_quotient_of_a_product(field):
    rng = random.Random(field.order if field.kind == "GF" else 0)
    for names in (("x", "y"), ("x", "y", "z")):
        R = ring(*names, field=field)
        for _ in range(3):
            f, g = random_dense(R, rng, 3), random_dense(R, rng, 2)
            if f and g:
                assert exact_quotient(f * g, g) == f


def test_exact_quotient_inverts_once_per_divisor(monkeypatch):
    R = ring("x", "y", field=gf_construct(5, 2))
    rng = random.Random(25)
    f, g = random_dense(R, rng, 4), random_dense(R, rng, 2)
    product = f * g
    calls = []
    original = FieldDesc.invert

    def counting(self, c):
        calls.append(c)
        return original(self, c)

    # The kernel inverts its ints, through the field's one inverse.
    monkeypatch.setattr(FieldDesc, "invert", counting)
    assert exact_quotient(product, g) == f
    assert len(f.terms) > 1 and len(calls) == 1


# -- determinants ------------------------------------------------------------


def leibniz(m, zero, one):
    """The permutation sum: the determinant by its definition."""
    n = len(m)
    total = zero
    for perm in itertools.permutations(range(n)):
        term = one
        for i, j in enumerate(perm):
            term = term * m[i][j]
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("field", [QQ, gf_construct(13, 1),
                                   gf_construct(10007, 1), gf_construct(5, 2)],
                         ids=str)
def test_determinant_matches_leibniz(field):
    rng = random.Random(f"leibniz:{field}")
    if field.kind == "GF":
        elems = list(field.elements())

        def draw():
            return rng.choice(elems)
    else:
        def draw():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    singular = 0
    for n in range(7):
        for trial in range(8 if n < 6 else 3):
            m = [[draw() if rng.random() < 0.7 else field.zero()
                  for _ in range(n)] for _ in range(n)]
            if trial % 2 and n >= 2:  # a multiple of another row
                i, j = rng.sample(range(n), 2)
                c = draw()
                m[i] = [c * x for x in m[j]]
            det = determinant(m, field)
            assert det == leibniz(m, field.zero(), field.one()), (n, m)
            singular += not det
    assert determinant([], field) == field.one()
    assert singular >= 10


@pytest.mark.parametrize("ring", [QQ, gf_construct(7, 1),
                                  PolyRing(QQ, ("x", "y"))],
                         ids=["QQ", "GF(7)", "QQ[x,y]"])
def test_determinant_refuses_a_matrix_that_is_not_square(ring):
    one = ring.one()
    for rows in ([[one, one]], [[one, one], [one]], [[one, one, one]] * 2,
                 [[]], [[one], [one, one]]):
        with pytest.raises(ValueError, match="not square"):
            determinant(rows, ring)
    assert determinant([], ring) == one


@pytest.mark.parametrize("field", [QQ, gf_construct(7, 1),
                                   gf_construct(5, 2)], ids=str)
def test_determinant_eliminates_on_ints(monkeypatch, field):
    # Zero leading entries move the pivot right, and a multiple of the top
    # row or a zero top row makes the matrix singular.  Over QQ the rows are
    # cleared to ints: the one Fraction made is the value that leaves.
    rng = random.Random(f"int-det:{field}")
    if field.kind == "GF":
        scalars = list(field.elements())
    else:
        scalars = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(40)]
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    singular = 0
    for n in range(1, 6):
        for trial in range(16):
            m = [[rng.choice(scalars) for _ in range(n)] for _ in range(n)]
            m[0][:trial % n] = [field.zero()] * (trial % n)
            if trial % 4 == 1:
                m[-1] = [rng.choice(scalars) * x for x in m[0]]
            elif trial % 8 == 2:
                m[0] = [field.zero()] * n
            expected = leibniz(m, field.zero(), field.one())
            made.clear()
            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__new__", counting)
                det = determinant(m, field)
            assert det == expected, m
            assert len(made) <= (1 if field.kind == "QQ" else 0)
            singular += not det
    assert singular >= 10


@pytest.mark.parametrize("field", [QQ, gf_construct(7, 1),
                                   gf_construct(10007, 1), gf_construct(5, 2)],
                         ids=str)
def test_determinant_of_mixed_polynomial_rows(field):
    R = ring("x", "y", field=field)
    rng = random.Random(f"mixed:{field}")
    kinds = ("zero", "constant", "polynomial")
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 5)
        m = []
        for _ in range(n):
            kind = rng.choice(kinds) if rng.random() < 0.2 else \
                rng.choice(kinds[1:])
            if kind == "zero":
                row = [R.zero()] * n
            elif kind == "constant":
                row = [R.constant(rng.randint(-3, 3)) for _ in range(n)]
            else:
                row = [random_dense(R, rng, rng.randint(0, 2))
                       for _ in range(n)]
            seen.add(kind)
            m.append(row)
        assert determinant(m, R) == leibniz(m, R.zero(), R.one())
    assert seen == set(kinds)
    assert determinant([], R) == R.one()


@pytest.mark.parametrize("field", [QQ, gf_construct(7, 1),
                                   gf_construct(5, 2)], ids=str)
def test_determinant_modulo_a_basis_is_the_normal_form(field):
    # NF is canonical and det is an integer polynomial in the entries, so
    # reducing the entries and the expansion gives NF(det).
    R = ring("x", "y", "z", field=field)
    rng = random.Random(f"det-modulo:{field}")

    def entry(degree):
        f = random_dense(R, rng, degree)
        if field.kind == "QQ":
            f = Polynomial.make(R, {e: Fraction(c, rng.randint(1, 6))
                                    for e, c in f.terms.items()})
        return f

    for trial in range(6):
        G = groebner_basis(Ideal(R, (entry(2), entry(2), entry(3))))
        m = [[entry(2) for _ in range(4)] for _ in range(4)]
        m[1] = [R.constant(rng.randint(1, 5)) for _ in range(4)]
        m[2] = [entry(1) for _ in range(4)]  # affine-linear
        m[3][trial % 4] = R.zero()
        expected = normal_form(determinant(m, R), G)
        assert determinant(m, R, G) == expected
        assert determinant(m, R, G.basis) == expected
        assert expected == normal_form(leibniz(m, R.zero(), R.one()), G)
        # modulo a point's basis every entry reduces to a constant
        x, y, z = (R.variable(i) for i in range(3))
        P = groebner_basis(Ideal(R, (x - 1, y + 2, z - trial)))
        assert determinant(m, R, P) == normal_form(determinant(m, R), P)
    # Two equal rows: every 2 x 2 minor of the bottom rows cancels.
    equal = [[x, y, z + 1], [x, y, z], [x, y, z]]
    assert determinant(equal, R) == determinant(equal, R, G) == R.zero()
    other = ring("x", "y", "w", field=field)
    with pytest.raises(ValueError, match="ring mismatch"):
        determinant(m, R, [other.variable(0)])


def test_determinant_divides_no_polynomial(monkeypatch):
    R = ring("x", "y", "z")
    rng = random.Random(3)
    m = [[random_dense(R, rng, 2) for _ in range(4)] for _ in range(4)]
    m[1] = [R.constant(c) for c in (0, 2, 0, -1)]

    def forbidden(*args):
        raise AssertionError("the determinant divides no polynomial")

    monkeypatch.setattr(poly, "exact_quotient", forbidden)
    monkeypatch.setattr(poly, "_reduce_terms", forbidden)
    assert determinant(m, R) == leibniz(m, R.zero(), R.one())


# -- coefficients that vanish only mod p -------------------------------------


def mod_p(f, R):
    """The QQ polynomial f, with p-integral coefficients, reduced into R over
    GF(p)."""
    return Polynomial.make(R, f.terms)


@pytest.mark.parametrize("p", [7, 10007])
def test_coefficients_that_vanish_only_mod_p(p):
    # Over GF(p) the kernel adds unreduced ints and reduces where a value
    # is read: a term whose integer coefficient is a nonzero multiple of p
    # is zero in every result, as in the QQ result reduced mod p.
    R, Q = ring("x", "y", field=gf_construct(p, 1)), ring("x", "y")

    def both(text):
        return R.from_string(text), Q.from_string(text)

    # a parse: a literal and a sum that vanish mod p
    assert R.from_string(f"{p}*x^2 + x - 1") == R.from_string("x - 1")
    assert R.from_string(f"{p}*x^2 + x - 1").terms == \
        {(1, 0): R.field.one(), (0, 0): R.field.coerce(-1)}
    assert R.from_string(f"3*x^2 + {p - 3}*x^2 + y") == R.from_string("y")
    # a public product whose terms cancel mod p
    (a, qa), (b, qb) = both("x + 1"), both(f"x + {p - 1}")
    assert a * b == R.from_string("x^2 - 1") == mod_p(qa * qb, R)
    # a determinant whose bottom 2 x 2 minor on columns 0 and 1 is p*x*y,
    # not 0 over Z, and one whose elimination leaves a constant -p
    rows = [["x + 1", "y", "x*y"], ["x", "y", "y^2"],
            ["2*x", f"{p + 2}*y", "x"]]
    for m in (rows, [["3", "2", "1"], ["x", "y", "1"],
                     [str((9 - p) // 2), "3", "x*y"]]):
        mr = [[R.from_string(t) for t in row] for row in m]
        mq = [[Q.from_string(t) for t in row] for row in m]
        assert determinant(mr, R) == mod_p(determinant(mq, Q), R) == \
            leibniz(mr, R.zero(), R.one())
    assert determinant([[R.from_string(t) for t in row] for row in
                        [["x", "y"], ["2*x", f"{p + 2}*y"]]], R) == R.zero()
    F = R.field
    assert determinant([[F.coerce(1), F.coerce(2)],
                        [F.coerce(3), F.coerce(p + 6)]], F) == F.zero()
    # exact quotients and normal forms
    (f, qf), (g, qg) = both(f"{p}*x^3*y + x^2*y - {2 * p}*y + 1"), \
        both("x*y + 3")
    assert exact_quotient(f * g, g) == f == mod_p(exact_quotient(qf * qg, qg),
                                                  R)
    gens = ["x^2 - 3", "y^2 + x"]
    G = groebner_basis(Ideal.of(R, *gens))
    GQ = groebner_basis(Ideal.of(Q, *gens))
    h, qh = both(f"{p}*x^3*y + 3*x^2*y^2 + {2 * p}*y^3 - x*y + {p + 5}")
    assert normal_form(h, G) == mod_p(normal_form(qh, GQ), R)
    assert normal_form(R.from_string(f"x^2*y - 3*y + {p}*x"), G) == R.zero()


def test_frobenius_powers_cancel_mod_7():
    # (x + y)^7 = x^7 + y^7 over GF(7): every middle binomial coefficient is
    # a multiple of 7, in a parsed power, a public power and a quotient.
    R = ring("x", "y", field=gf_construct(7, 1))
    s = R.from_string("x + y")
    assert R.from_string("(x + y)^7") == s ** 7 == R.from_string("x^7 + y^7")
    assert (s + 1) ** 7 == R.from_string("x^7 + y^7 + 1")
    assert exact_quotient(R.from_string("x^7 + y^7"), s) == s ** 6


# -- packed GF(p^k) coefficients against a schoolbook reference --------------


def school_product(a: dict, b: dict, F) -> dict:
    """The product of two public term dicts, in `FFElement` arithmetic
    alone: the kernel's packed ints play no part."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, F.zero()) + c1 * c2
    return {e: c for e, c in out.items() if c}


def school_sum(F, *dicts) -> dict:
    out = {}
    for d in dicts:
        for e, c in d.items():
            out[e] = out.get(e, F.zero()) + c
    return {e: c for e, c in out.items() if c}


def school_leibniz(m, F, one) -> dict:
    """det m by the permutation sum of schoolbook products; one is the
    public terms of 1."""
    n, total = len(m), {}
    for perm in itertools.permutations(range(n)):
        term = one
        for i, j in enumerate(perm):
            term = school_product(term, m[i][j], F)
        if sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2:
            term = {e: -c for e, c in term.items()}
        total = school_sum(F, total, term)
    return total


def random_t_poly(R, rng, terms, degree):
    """terms random monomials of degree <= degree, with coefficients drawn
    from all of the field, so almost all of them lie outside GF(p)."""
    F = R.field
    return Polynomial.make(R, {
        tuple(rng.randint(0, degree) for _ in range(R.nvars)):
        F.coerce(tuple(rng.randrange(F.char) for _ in range(F.degree)))
        for _ in range(terms)})


@pytest.mark.parametrize("q", [((1 << 61) - 1, 2), (10007, 3)],
                         ids=["GF((2^61-1)^2)", "GF(10007^3)"])
def test_packed_coefficients_match_the_schoolbook_field(q):
    # Over GF(p^k) the kernel adds and multiplies Kronecker-packed ints,
    # unreduced, wherever the slot width bounds them, and reduces every
    # product of products.  Products, long division chains, a determinant
    # with a block of four nonlinear rows, a scalar Gaussian determinant,
    # the Gram elimination and the partials at a point, all with
    # coefficients outside GF(p), are the schoolbook field's.
    F = gf_construct(*q)
    R = ring("x", "y", "z", field=F)
    rng = random.Random(f"packed:{F}")
    one = {(0, 0, 0): F.one()}

    def draw():
        return F.coerce(tuple(rng.randrange(F.char) for _ in range(F.degree)))

    # products and powers
    f, g = random_dense(R, rng, 3), random_dense(R, rng, 2)
    assert (f * g).terms == school_product(f.terms, g.terms, F)
    assert (g ** 3).terms == school_product(
        school_product(g.terms, g.terms, F), g.terms, F)
    # s * f = rem + sum q_i * g_i, s = 1, over long reduction chains
    f = random_dense(R, rng, 17)
    gs = [R.from_string(lm) + sum((R.from_string(m) * draw() for m in tail),
                                  random_dense(R, rng, 1))
          for lm, tail in (("x^2", ("x*y", "y^2", "x*z", "y*z", "z^2")),
                           ("y^2", ("x*z", "y*z", "z^2")), ("z^2", ()))]
    steps = []
    rem, s = _reduce_terms(R, _enter(f)[1], _prep_divisors(gs), steps)
    assert s == 1 and len(steps) > 1000
    total = _public(R, rem, 1)
    for g, q_terms in zip(gs, quotients_of(R, steps, s, len(gs))):
        monic = {e: c / g.leading_coefficient() for e, c in g.terms.items()}
        total = school_sum(F, total, school_product(q_terms, monic, F))
    assert total == f.terms
    assert exact_quotient(f * gs[0], gs[0]) == f
    # a determinant: one constant row and a block of four nonlinear rows
    m = [[random_t_poly(R, rng, 3, 2) for _ in range(5)] for _ in range(4)]
    m.append([R.constant(draw()) for _ in range(5)])
    assert determinant(m, R).terms == \
        school_leibniz([[x.terms for x in row] for row in m], F, one)
    # a Gaussian determinant, and the Gram elimination's det
    m = [[draw() for _ in range(6)] for _ in range(6)]
    assert determinant(m, F) == \
        school_leibniz([[{(): c} for c in row] for row in m], F,
                       {(): F.one()})[()]
    sym = [[F.zero()] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            sym[i][j] = sym[j][i] = draw()
    det = forms._eliminate(sym, F)[1]
    assert det == school_leibniz([[{(): c} if c else {} for c in row]
                                  for row in sym], F, {(): F.one()})[()]
    # the partials at a point, from terms c * e_j with e_j up to 40
    point = [draw() for _ in range(3)]
    h = random_t_poly(R, rng, 6, 40)
    value = sum((c * prod_of(point, e) for e, c in h.terms.items()),
                F.zero())
    h = h - value
    gb = groebner_basis(Ideal(R, tuple(R.variable(i) - a
                                       for i, a in enumerate(point))))
    assert not normal_form(h, gb)
    for j in range(3):
        assert normal_form(h.derivative(j), gb) == R.constant(
            sum((c * e[j] * prod_of(point, e, j)
                 for e, c in h.terms.items() if e[j]), F.zero()))


def prod_of(point, e, j=None):
    """The monomial x^e at the point, or its partial's monomial in x_j."""
    out = point[0].field.one()
    for i, (a, k) in enumerate(zip(point, e)):
        out = out * a ** (k - (i == j))
    return out


# -- refused inputs ----------------------------------------------------------


RX, RY = ring("x"), ring("y")
X, Y, ZERO = RX.variable(0), RY.variable(0), RX.zero()
HUGE = Polynomial.make(RX, {(2 ** 31,): 1})

REFUSED = [
    (lambda: HUGE * X, ValueError,
     "a monomial of degree 2^31 or more is out of range"),
    (lambda: ring("x", "x"), ValueError, "variable names must be distinct"),
    (lambda: ring(), ValueError, "a polynomial ring needs at least one variable"),
    (lambda: PolyRing(QQ, ("x",), "lex"), ValueError,
     "unknown monomial order 'lex'"),
    (lambda: Polynomial.make(RX, {(1, 2): 1}), ValueError,
     "bad exponent vector (1, 2)"),
    (lambda: X + Y, ValueError, "polynomial ring mismatch"),
    (lambda: X - Y, ValueError, "polynomial ring mismatch"),
    (lambda: X * Y, ValueError, "polynomial ring mismatch"),
    (lambda: X.map_to(ring("x", field=gf_construct(7, 1)), [0]), ValueError,
     "target ring has a different coefficient field"),
    (lambda: exact_quotient(X, Y), ValueError, "polynomial ring mismatch"),
    (lambda: exact_quotient(X, ZERO), ZeroDivisionError,
     "division by the zero polynomial"),
    (lambda: X ** -1, ValueError, "negative polynomial power"),
    (lambda: Ideal(RX, ()), ValueError, "an ideal needs at least one generator"),
    (lambda: Ideal(RX, (Y,)), ValueError,
     "all generators must live in the ideal's ring"),
    (lambda: groebner_basis(Ideal(RX, (ZERO, ZERO))), ValueError,
     "generators must not all be zero"),
    (lambda: ideal_quotient(Ideal(RX, (X,)), Ideal(RY, (Y,))), ValueError,
     "polynomial ring mismatch"),
    (lambda: ideal_quotient(Ideal(RX, (X,)), Ideal(RX, (ZERO,))), ValueError,
     "colon by the zero ideal"),
    (lambda: saturation(Ideal(RX, (X,)), Ideal(RY, (Y,))), ValueError,
     "polynomial ring mismatch"),
    (lambda: resultant_univariate(X, Y), ValueError,
     "polynomial ring mismatch"),
    (lambda: resultant_univariate(X, ZERO), ValueError,
     "resultant of the zero polynomial"),
]


@pytest.mark.parametrize("call, exc, message", REFUSED,
                         ids=[message for *_, message in REFUSED])
def test_refused_polynomial_inputs(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
