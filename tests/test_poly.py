from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy

from a1degrees import poly
from a1degrees.fields import QQ, FFElement, gf_construct
from a1degrees.poly import (MAX_EXPONENT, GroebnerBasis, Ideal, ParseError,
                            Polynomial, PolyRing, determinant, exact_quotient,
                            groebner_basis, ideal_quotient, normal_form,
                            parse_polynomial, resultant_univariate,
                            saturation, standard_monomials)
from a1degrees.poly import _divides, _prep_divisors, _reduce_terms


def ring(*names, field=QQ):
    return PolyRing(field, tuple(names))


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
]


@pytest.mark.parametrize("text,message", PARSE_ERRORS)
def test_parser_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        ring("x", "y").from_string(text)
    assert str(info.value) == message


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


def test_power_of_a_single_term_needs_no_multiplication(monkeypatch):
    R = ring("x", "y", field=gf_construct(5, 2))
    t = R.from_string("3*x*y^2")

    def forbidden(*args):
        raise AssertionError("a monomial's power is read off directly")

    monkeypatch.setattr(Polynomial, "__mul__", forbidden)
    assert (t ** 7).terms == {(7, 14): R.field.coerce(3) ** 7}
    assert t ** 0 == R.one()


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
    """The `_prep_divisors` triples built from here on."""
    prepared = []
    original = poly._prep_divisors

    def recording(polys):
        triples = original(polys)
        prepared.extend(triples)
        return triples

    monkeypatch.setattr(poly, "_prep_divisors", recording)
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
    monic = [Polynomial(R, {lm: Fraction(1), **{e: Fraction(c, lc)
                                                 for e, c in tail}})
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
        quotients, scale = [{} for _ in divisors], [1]
        rem = Polynomial(R, _reduce_terms(R, f.terms, divisors, quotients,
                                          scale))
        total = rem
        for (lm, u, tail), q, g in zip(divisors, quotients, gs):
            divisor = Polynomial(R, {lm: u, **dict(tail)})
            assert divisor * g.leading_coefficient() == g * u
            if not qq:
                assert type(u) is int and u == 1
            total += Polynomial(R, q) * divisor
        assert total == f * scale[0]
        lms = [lm for lm, _, _ in divisors]
        assert not any(_divides(lm, e) for lm in lms for e in rem.terms)
        scaled += scale[0] != 1
        # A constant multiple of a divisor prepares to the same triple.
        for c in units:
            prepared = _prep_divisors([c * g for g in gs])
            again = [{} for _ in divisors], [1]
            assert _reduce_terms(R, f.terms, prepared, *again) == rem.terms
            assert again[1] == scale
            g = gs[0]
            assert exact_quotient(f * g, c * g) == f * (1 / c)
    assert scaled if qq else not scaled


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


# -- resultants --------------------------------------------------------------


def test_resultant_examples():
    R = ring("x")
    assert resultant_univariate(R.from_string("x - 4"),
                                R.from_string("x - 9")) == Fraction(5)
    assert resultant_univariate(R.from_string("x^2"),
                                R.from_string("x - 1")) == Fraction(1)


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
        quotients = [{} for _ in gs]
        rem = Polynomial(R, _reduce_terms(R, f.terms, _prep_divisors(gs),
                                          quotients))
        total = rem
        for g, q_terms in zip(gs, quotients):
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
    original = FFElement.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FFElement, "inverse", counting)
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


@pytest.mark.parametrize("field", [QQ, gf_construct(13, 1), gf_construct(5, 2)],
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


@pytest.mark.parametrize("field", [QQ, gf_construct(5, 2)], ids=str)
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
