from __future__ import annotations

import importlib.util
import itertools
import random
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from conftest import count_fraction_arithmetic

from a1degrees import degrees, forms, poly
from a1degrees.degrees import (EndoSystem, bezoutian_matrix, global_a1_degree,
                               local_a1_degree, local_algebra_basis)
from a1degrees.fields import CC, QQ, RR, FFElement, gf_construct
from a1degrees.forms import (add_gw, base_change, diagonalize, empty_form,
                             get_invariants, get_signature,
                             is_isomorphic_form, make_diagonal_form,
                             make_gw_class)
from a1degrees.poly import (GroebnerBasis, Ideal, Polynomial, PolyRing,
                            groebner_basis, ideal_quotient, normal_form,
                            saturation, standard_monomials)
from a1degrees.witt import sum_decomposition


def system(names, polys, field=QQ):
    ring = PolyRing(field, tuple(names))
    return ring, EndoSystem.of(ring, *polys)


QUARTIC = "x^4 - 6*x^2 - 7*x - 6"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


# -- Bezoutian matrices ------------------------------------------------------


def test_bezoutian_of_quartic():
    ring, f = system(("x",), [QUARTIC])
    delta = bezoutian_matrix(f)
    expected = delta.doubled_ring.from_string(
        "Xx^3 + Xx^2*Yx + Xx*Yx^2 + Yx^3 - 6*Xx - 6*Yx - 7")
    assert delta.entries[0][0] == expected


def test_bezoutian_of_identity():
    ring, f = system(("x",), ["x"])
    assert bezoutian_matrix(f).entries[0][0] == \
        bezoutian_matrix(f).doubled_ring.one()


def test_bezoutian_diagonal_specialization_is_the_jacobian():
    # B(x, x) = J(x): each entry with Y set to X, folded into the base ring.
    ring, f = system(("x", "y"), ["x^2*y - 3*y + 1", "x*y^3 - x^2"])
    entries = bezoutian_matrix(f).entries
    for i, poly in enumerate(f.polys):
        for j in range(2):
            assert entries[i][j].map_to(ring, [0, 1, 0, 1]) == \
                poly.derivative(j)


def test_bezoutian_determinant_never_divides(monkeypatch):
    ring, f = system(("x", "y", "z"), ["x^2*y - 3*z + 1", "x*y^3 - z^2 + y",
                                       "y*z^2 + x^3 - 2*x*z"])
    bez = bezoutian_matrix(f)

    def forbidden(*args):
        raise AssertionError("the degree path divides no polynomial")

    monkeypatch.setattr(poly, "exact_quotient", forbidden)
    det = bez.determinant()
    (a, b, c), (d, e, g), (h, i, j) = bez.entries
    assert det == a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h)
    gb = groebner_basis(Ideal(ring, f.polys))
    assert global_a1_degree(f).rank == len(standard_monomials(gb)) == 20


def random_system(rng, field, n):
    ring = PolyRing(field, tuple(f"x{i}" for i in range(n)))
    polys = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            terms[e] = rng.randint(-6, 6)
        polys.append(Polynomial.make(ring, terms) or ring.one())
    return EndoSystem(ring, tuple(polys))


@pytest.mark.parametrize("field", [QQ, gf_construct(5, 2)], ids=str)
def test_closed_form_bezoutian_times_the_difference(field):
    # (X_j - Y_j) * entry(i, j) = f_i(hi_j) - f_i(lo_j), checked by
    # multiplication: the staggered substitutions the entries replace.
    rng = random.Random(f"bezoutian:{field}")
    for _ in range(12):
        f = random_system(rng, field, rng.randint(2, 4))
        bez = bezoutian_matrix(f)
        dring, n = bez.doubled_ring, f.ring.nvars
        for j in range(n):
            hi = [(k + n if k < j else k) for k in range(n)]
            lo = [(k + n if k <= j else k) for k in range(n)]
            step = dring.variable(j) - dring.variable(j + n)
            for i, fi in enumerate(f.polys):
                assert bez.entries[i][j] * step == \
                    fi.map_to(dring, hi) - fi.map_to(dring, lo)


def test_bezoutian_entries_need_no_substitution_or_division(monkeypatch):
    ring, f = system(("x", "y"), ["x^2*y - 3*y + 1", "x*y^3 - x^2 + y"])

    def forbidden(*args):
        raise AssertionError("the entries substitute and divide nothing")

    monkeypatch.setattr(Polynomial, "map_to", forbidden)
    monkeypatch.setattr(poly, "exact_quotient", forbidden)
    bez = bezoutian_matrix(f)
    assert bez.entries[1][1] == bez.doubled_ring.from_string(
        "Yx*Xy^2 + Yx*Xy*Yy + Yx*Yy^2 + 1")


def test_one_reduction_pass_per_degree(monkeypatch):
    ring, f = system(("x", "y"), ["x^2*y - 3*y + 1", "x*y^3 - x^2 + y"])
    prepared, determinants, normal_forms = [], [], []
    prep, det = poly._prep_divisors, degrees.BezoutianMatrix.determinant

    def preparing(polys):
        polys = tuple(polys)
        prepared.append(len(polys))
        return prep(polys)

    def determinant(bez, modulo=None):
        determinants.append(modulo)
        return det(bez, modulo)

    def normal_form(g, divisors):
        normal_forms.append(g)
        raise AssertionError("a global degree takes no separate normal form")

    monkeypatch.setattr(poly, "_prep_divisors", preparing)
    monkeypatch.setattr(degrees.BezoutianMatrix, "determinant", determinant)
    monkeypatch.setattr(poly, "normal_form", normal_form)
    global_a1_degree(f)
    # The X-copy and the Y-copy of the basis are the basis's own divisors
    # moved into the doubled ring: no polynomial is prepared again.
    assert prepared == []
    assert len(determinants) == 1 and determinants[0] is not None
    assert len(determinants[0]) == \
        2 * len(groebner_basis(Ideal(ring, f.polys)).basis)
    assert normal_forms == []


def test_an_asymmetric_bezoutian_gram_is_refused(monkeypatch):
    # One term more at the grid cell (1, x) of the doubled ring: the Gram
    # stays on the grid, and the class's one symmetry check refuses it.
    # The system has zeros at infinity, so its Gram is the Bezoutian's.
    ring, f = system(("x", "y"), ["x^2*y - 3*y + 1", "x*y^3 - x^2 + y"])
    det = degrees.BezoutianMatrix.determinant

    def skewed(bez, modulo=None):
        return det(bez, modulo) + Polynomial(bez.doubled_ring,
                                             {(0, 0, 1, 0): QQ.one()})

    monkeypatch.setattr(degrees.BezoutianMatrix, "determinant", skewed)
    with pytest.raises(ValueError) as info:
        global_a1_degree(f)
    assert str(info.value) == "Gram matrix must be symmetric"


@pytest.mark.parametrize("field", [QQ, gf_construct(7, 1), gf_construct(5, 2),
                                   gf_construct(3, 3)], ids=str)
def test_doubled_divisors_are_the_prepared_copies(field):
    # `_degree_from_basis` moves the basis's triples with `_mover`.  The
    # oracle is the construction that replaces: each basis element mapped
    # into the doubled ring, the X-copy then the Y-copy, and prepared from
    # its public terms.
    rng = random.Random(f"doubled:{field}")
    scalars = [Fraction(-5, 7), Fraction(3, 2), 4] if field == QQ else \
        list(field.elements())[1:]
    for n in range(1, 5):
        ring = PolyRing(field, tuple(f"x{i}" for i in range(n)))
        top = 3 if n < 3 else 2
        monomials = [e for e in itertools.product(range(top + 1), repeat=n)
                     if sum(e) <= top]
        polys = [Polynomial.make(ring, {e: rng.choice(scalars) for e in
                                        rng.sample(monomials, 4)})
                 for _ in range(n)]
        for gb in (groebner_basis(Ideal(ring, tuple(polys))),
                   GroebnerBasis(Ideal(ring, tuple(polys)),
                                 tuple(p for p in polys if p))):
            dring = degrees.doubled_ring(ring)
            for offset in (0, n):
                copies = [g.map_to(dring, list(range(offset, offset + n)))
                          for g in gb.basis]
                move = poly._mover(ring, dring, offset)
                assert [(move(lm), u, [(move(e), c) for e, c in tail])
                        for lm, u, tail in gb._divisors] == \
                    poly._prep_divisors(copies)
    with pytest.raises(ValueError, match="does not embed"):
        poly._mover(ring, dring, n + 1)


def rational_system(rng, n, degree):
    """f_i = a_i * x_i^degree plus every lower monomial, with Fraction
    coefficients: zero-dimensional with Bezout number degree^n."""
    ring = PolyRing(QQ, tuple(f"x{i}" for i in range(n)))

    def coefficient():
        return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]),
                        rng.randint(1, 6))

    polys = []
    for i in range(n):
        terms = {e: coefficient() * rng.randint(0, 1)
                 for e in itertools.product(range(degree), repeat=n)
                 if sum(e) < degree}
        terms[tuple(degree * (k == i) for k in range(n))] = coefficient()
        polys.append(Polynomial.make(ring, terms))
    return EndoSystem(ring, tuple(polys))


@pytest.mark.parametrize("n,degree", [(2, 3), (3, 2)])
def test_scaling_one_polynomial_scales_the_gram(n, degree):
    # Row 1 of the Bezoutian is linear in f_1, and c * f_1 generates the
    # same ideal, so on the same basis the Gram matrix is c times the old.
    rng = random.Random(f"scaled-gram:{n}")
    for _ in range(3):
        f = rational_system(rng, n, degree)
        gram = global_a1_degree(f).gram
        assert len(gram) == degree ** n
        for c in (Fraction(2, 3), Fraction(-5, 7), Fraction(1, 4)):
            scaled = EndoSystem(f.ring, (f.polys[0] * c,) + f.polys[1:])
            assert global_a1_degree(scaled).gram == tuple(
                tuple(c * x for x in row) for row in gram)


def test_qq_kernel_does_no_fraction_arithmetic(monkeypatch):
    # The Groebner basis, the Bezoutian determinant and the normal form work
    # on ints, also from an integral system; only the final Fraction(n, d)
    # are built.  No f_i is linear, so no Bezoutian row is constant.
    ring, f = system(("x", "y", "z"), ["2*x^2 - 3*y + z - 1",
                                       "x*y^2 - 3*z + 1",
                                       "y*z^2 + x^3 - 2*x*z"])
    integral = EndoSystem(ring, tuple(
        Polynomial(ring, {e: int(c) for e, c in p.terms.items()})
        for p in f.polys))
    bez = bezoutian_matrix(integral)
    expected = bezoutian_matrix(f).determinant()
    g = ring.from_string("x^3*y - 5*x*z^2 + 7*y - 1")
    calls = count_fraction_arithmetic(monkeypatch)
    G = groebner_basis(Ideal(ring, f.polys))
    assert calls == []
    det = bez.determinant()
    assert calls == []
    remainder = normal_form(g, G)
    assert calls == []
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert calls == ["__add__"]  # the counters do see Fraction arithmetic
    monkeypatch.undo()
    assert det == expected and \
        all(type(c) is Fraction for c in det.terms.values())
    assert len(G.basis) > 1 and remainder
    assert normal_form(g - remainder, G).is_zero()


def test_qq_products_multiply_ints_only(monkeypatch):
    # Every QQ polynomial enters the kernel as its integral multiple, so the
    # one product loop sees ints: in a determinant with a constant Bezoutian
    # row (an affine-linear f_i, eliminated by rational pivots) and in
    # public products and powers of Fraction polynomials.
    ring = PolyRing(QQ, ("x", "y", "z"))
    f = EndoSystem(ring, tuple(ring.from_string(p) * c for p, c in [
        ("3*x - 2*y + z - 1", Fraction(1, 2)),
        ("x^2*y - 3*z^2 + y", Fraction(-2, 3)),
        ("y*z^2 + x^3 - 2*x*z", Fraction(5, 4))]))
    bez = bezoutian_matrix(f)
    b = bez.entries
    expected = bez.doubled_ring.zero()
    for i, j, k in itertools.permutations(range(3)):
        inversions = (i > j) + (i > k) + (j > k)
        expected += b[0][i] * b[1][j] * b[2][k] * (-1) ** inversions
    p = ring.from_string("x + 3*y - 1") * Fraction(1, 2)
    q = ring.from_string("2*x*y - z") * Fraction(5, 3)
    seen = set()
    original = poly._mul_into

    def recording(out, a, b, guard):
        seen.update(type(c) for _, c in a)
        seen.update(type(c) for _, c in b)
        out = original(out, a, b, guard)
        seen.update(map(type, out.values()))
        return out

    monkeypatch.setattr(poly, "_mul_into", recording)
    det = bez.determinant()
    assert seen == {int}
    product = p ** 3 * q
    assert seen == {int}
    monkeypatch.undo()
    assert det == expected and det
    assert product == ring.from_string(
        "(x + 3*y - 1)^3 * (2*x*y - z)") * Fraction(5, 24)
    for g in (det, product, p ** 0):
        assert all(type(c) is Fraction for c in g.terms.values())


@pytest.mark.parametrize("field, t", [
    (gf_construct(7, 1), False),
    (gf_construct(10007, 1), False),
    (gf_construct(5, 2), False),
    (gf_construct(3, 3), False),
    (gf_construct(11, 2), False),
    (gf_construct(10007, 2), False),
    (gf_construct(5, 2), True)],
    ids=["GF(7)", "GF(10007)", "GF(25)", "GF(27)", "GF(121)", "GF(10007^2)",
         "GF(25), t"])
def test_gf_kernel_coefficients_are_residues(monkeypatch, field, t):
    # Over every finite field, small (GF(7)) or not (GF(10007^2)), every
    # polynomial enters the kernel as its field's ints: residues over GF(p),
    # and over GF(p^k) the packed elements, which are residues again for
    # data in GF(p).  So the product loop and the division loop see ints in
    # every call, the parser's, a degree's and a library product's, with a
    # coefficient outside GF(p) (t, over GF(25)) or not.  Every public
    # result holds the ring's field elements.
    ring = PolyRing(field, ("x", "y", "z"))
    f = EndoSystem.of(ring, "3*x - 2*y + z - 1", "x^2*y - 3*z^2 + y",
                      "y*z^2 + x^3 - 2*x*z")
    if t:  # 3*x - 2*y + (1 + t)*z - 1
        f = EndoSystem(ring, (f.polys[0] + field.coerce((0, 1)) *
                              ring.variable(2), *f.polys[1:]))
    bez = bezoutian_matrix(f)
    b = bez.entries
    expected = bez.doubled_ring.zero()
    for i, j, k in itertools.permutations(range(3)):
        inversions = (i > j) + (i > k) + (j > k)
        expected += b[0][i] * b[1][j] * b[2][k] * (-1) ** inversions
    p, q = ring.from_string("x + 3*y - 1"), ring.from_string("2*x*y - z")
    seen: dict = {}
    place = None
    mul, reduce = poly._mul_into, poly._reduce_terms

    def record(values):
        seen.setdefault(place, set()).update(map(type, values))

    def recording_mul(out, a, b, guard):
        record(c for _, c in a)
        record(c for _, c in b)
        out = mul(out, a, b, guard)
        record(out.values())
        return out

    def recording_reduce(ring, fterms, divisors, steps=None):
        record(fterms.values())
        for _, _, tail in divisors:
            record(c for _, c in tail)
        rem, s = reduce(ring, fterms, divisors, steps)
        record(rem.values())
        return rem, s

    monkeypatch.setattr(poly, "_mul_into", recording_mul)
    monkeypatch.setattr(poly, "_reduce_terms", recording_reduce)
    place = "determinant"
    det = bez.determinant()
    place = "degree"
    beta = global_a1_degree(f)
    place = "basis"
    gb = groebner_basis(Ideal(ring, f.polys))
    place = "product"
    product = p ** 3 * q
    place = "parse"
    parsed = ring.from_string("(x + 3*y - 1)^3 * (2*x*y - z) - 7*x^2")
    monkeypatch.undo()
    assert seen == dict.fromkeys(
        ["determinant", "degree", "basis", "product", "parse"], {int})
    assert det == expected and det
    assert product == p * p * p * q
    assert parsed == product - 7 * ring.from_string("x^2")
    assert beta.rank == len(standard_monomials(gb)) > 1
    for g in (det, product, parsed, p ** 0, *gb.basis):
        assert all(type(c) is FFElement and c.field == field
                   for c in g.terms.values())
    assert beta.field == field
    assert all(type(c) is FFElement and c.field == field
               for row in beta.gram for c in row)


@pytest.mark.parametrize("p", [101, 103, 10007])
def test_rational_gram_reduces_to_the_gf_gram(monkeypatch, p):
    """Reduction mod p commutes with the global degree of an integer system.

    The QQ Gram reduced mod p is the GF(p) Gram of the same system, entry
    for entry, and so is the determinant of the classes.  A case is skipped
    only where p divides a Gram denominator.
    """
    w = _workloads(monkeypatch)
    F = gf_construct(p, 1)
    cases = skipped = 0
    for seed in range(30):
        for shape in ((2, 2), (3, 2), (2, 2, 2)):
            names = w._var_names(len(shape))
            polys = [w.to_string(f, names) for f in w.random_system(
                random.Random(seed), shape, top=3, low=3)]
            beta = global_a1_degree(system(names, polys)[1])
            gamma = global_a1_degree(system(names, polys, F)[1])
            cases += 1
            if any(c.denominator % p == 0 for row in beta.gram for c in row):
                skipped += 1
                continue
            assert [[F.coerce(c) for c in row] for row in beta.gram] == \
                [list(row) for row in gamma.gram]
            assert F.coerce(beta._elimination[1]) == gamma._elimination[1]
    assert cases == 90 and skipped <= 9, skipped


def test_endo_system_must_be_square():
    ring = PolyRing(QQ, ("x", "y"))
    with pytest.raises(ValueError):
        EndoSystem.of(ring, "x*y")


def test_endo_system_refuses_a_ring_not_ordered_by_grevlex():
    # The degree path moves its divisors and reads degrees as grevlex keys,
    # so a block-ordered ring is refused before any query is posed.
    ring = PolyRing(QQ, ("x", "y"), order="elim1")
    with pytest.raises(ValueError, match="grevlex"):
        EndoSystem.of(ring, "x^2 - 1", "y^2 - 2")


# -- univariate degree suite -------------------------------------------------


def test_global_degree_of_quartic():
    ring, f = system(("x",), [QUARTIC])
    alpha = global_a1_degree(f)
    expected = make_gw_class(
        [[-7, -6, 0, 1], [-6, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], QQ)
    assert alpha.rank == 4
    assert is_isomorphic_form(alpha, expected)


def test_local_degrees_of_quartic():
    ring, f = system(("x",), [QUARTIC])
    a1 = local_a1_degree(f, Ideal.of(ring, "x^2 + x + 1"))
    a2 = local_a1_degree(f, Ideal.of(ring, "x - 3"))
    a3 = local_a1_degree(f, Ideal.of(ring, "x + 2"))
    assert is_isomorphic_form(a1, make_gw_class([[-5, -7], [-7, -2]], QQ))
    assert is_isomorphic_form(a2, make_diagonal_form(QQ, [65]))
    assert is_isomorphic_form(a3, make_diagonal_form(QQ, [-15]))
    total = add_gw(a1, add_gw(a2, a3))
    assert is_isomorphic_form(total, global_a1_degree(f))


def test_local_algebra_bases_of_quartic():
    ring, f = system(("x",), [QUARTIC])
    assert len(local_algebra_basis(f, Ideal.of(ring, "x - 3")).basis) == 1
    assert len(local_algebra_basis(f, Ideal.of(ring, "x^2 + x + 1")).basis) == 2


def test_simple_zero_local_degree_is_the_derivative():
    ring, f = system(("x",), [QUARTIC])
    fx = ring.from_string(QUARTIC)
    # f'(3) = 65 and f'(-2) = -15
    d = fx.derivative(0)
    for root, point in ((3, "x - 3"), (-2, "x + 2")):
        value = sum(c * Fraction(root) ** e[0] for e, c in d.terms.items())
        local = local_a1_degree(f, Ideal.of(ring, point))
        assert is_isomorphic_form(local, make_diagonal_form(QQ, [value]))


def test_point_not_in_zero_locus():
    ring, f = system(("x",), [QUARTIC])
    with pytest.raises(ValueError, match="point not in zero locus"):
        local_a1_degree(f, Ideal.of(ring, "x - 1"))


def test_non_isolated_zeros_are_rejected():
    ring, f = system(("x", "y"), ["x*y", "x*y"])
    with pytest.raises(ValueError, match="zeros are not isolated"):
        global_a1_degree(f)


def test_non_isolated_point_is_rejected_locally():
    ring, f = system(("x", "y"), ["x*y", "x*y"])
    origin = Ideal.of(ring, "x", "y")
    with pytest.raises(ValueError, match="zeros are not isolated"):
        local_a1_degree(f, origin)
    with pytest.raises(ValueError, match="zeros are not isolated"):
        local_algebra_basis(f, origin)


def test_isolated_point_next_to_a_curve():
    # V(x^2 - x, x*y) is the line x = 0 plus the simple point (1, 0)
    ring, f = system(("x", "y"), ["x^2 - x", "x*y"])
    local = local_a1_degree(f, Ideal.of(ring, "x - 1", "y"))
    assert local.gram == ((Fraction(1),),)


def test_rr_base_is_rejected_but_base_change_works():
    with pytest.raises(ValueError):
        PolyRing(RR, ("x",))
    ring, f = system(("x",), [QUARTIC])
    real = base_change(global_a1_degree(f), RR)
    assert real.field == RR
    assert get_signature(real) == 0


def test_a_system_without_zeros_has_the_rank_zero_degree():
    # x*y - 1 and x have no common zero, so the local algebra is 0.
    _, f = system(("x", "y"), ["x*y - 1", "x"])
    beta = global_a1_degree(f)
    assert (beta.rank, beta.gram, str(beta)) == (0, (), "<empty form over QQ>")
    assert sum_decomposition(beta).display == "0"


# -- multivariate systems ----------------------------------------------------


def test_split_two_variable_system_local_to_global():
    ring, f = system(("x", "y"), ["x^2 - 1", "y^2 - 1"])
    alpha = global_a1_degree(f)
    assert alpha.rank == 4
    total = None
    for px in ("x - 1", "x + 1"):
        for py in ("y - 1", "y + 1"):
            local = local_a1_degree(f, Ideal.of(ring, px, py))
            assert local.rank == 1
            total = local if total is None else add_gw(total, local)
    assert is_isomorphic_form(total, alpha)


def test_local_degree_at_simple_point_is_jacobian_determinant():
    ring, f = system(("x", "y"), ["x^2 - 1", "y^2 - 1"])
    # at (1, 1) the Jacobian is diag(2, 2) with determinant 4
    local = local_a1_degree(f, Ideal.of(ring, "x - 1", "y - 1"))
    assert is_isomorphic_form(local, make_diagonal_form(QQ, [4]))


def test_variable_order_permutation_gives_isomorphic_class():
    _, f = system(("x", "y"), ["x^2 - y", "y^2 - 3*x"])
    _, g = system(("y", "x"), ["x^2 - y", "y^2 - 3*x"])
    a, b = global_a1_degree(f), global_a1_degree(g)
    assert a.rank == b.rank
    assert is_isomorphic_form(a, b)


def test_global_degree_over_gf13():
    F13 = gf_construct(13, 1)
    ring, f = system(("x", "y"), ["x^2 - 1", "y^2 - 1"], field=F13)
    alpha = global_a1_degree(f)
    assert alpha.rank == 4
    total = None
    for px in ("x - 1", "x + 1"):
        for py in ("y - 1", "y + 1"):
            local = local_a1_degree(f, Ideal.of(ring, px, py))
            total = local if total is None else add_gw(total, local)
    assert is_isomorphic_form(total, alpha)


def test_gram_matrices_are_symmetric():
    ring, f = system(("x", "y"), ["x^3 - 2*y", "y^2 - x"])
    alpha = global_a1_degree(f)
    for i in range(alpha.rank):
        for j in range(alpha.rank):
            assert alpha.gram[i][j] == alpha.gram[j][i]


def test_rank_equals_quotient_dimension():
    from a1degrees.poly import groebner_basis, standard_monomials
    ring, f = system(("x", "y"), ["x^3 - 2*y", "y^2 - x"])
    G = groebner_basis(Ideal(ring, f.polys))
    assert global_a1_degree(f).rank == len(standard_monomials(G))


# -- the local ideal against the colon/saturation oracle ---------------------


def colon_oracle(f, point):
    """The paper's m-primary component I : (I : m^inf), reduced."""
    ideal = Ideal(f.ring, f.polys)
    return groebner_basis(ideal_quotient(ideal, saturation(ideal, point))).basis


FERMAT = ["y1^3 + y3^3 + 1", "3*y1^2*y2 + 3*y3^2*y4",
          "3*y1*y2^2 + 3*y3*y4^2", "y2^3 + y4^3 + 1"]


@pytest.mark.parametrize("names, polys, point, rank", [
    (("x",), [QUARTIC], ["x^2 + x + 1"], 2),
    (("x",), [QUARTIC], ["x - 3"], 1),
    (("x",), [QUARTIC], ["x + 2"], 1),
    (("y1", "y2", "y3", "y4"), FERMAT, ["y4", "y3 + 1", "y2 + 1", "y1"], 1),
    (("x",), ["(x - 1)^3*(x + 2)"], ["x - 1"], 3),
    (("x", "y"), ["x^2", "y^2"], ["x", "y"], 4),
])
def test_local_ideal_matches_colon_oracle(names, polys, point, rank):
    ring, f = system(names, polys)
    m = Ideal.of(ring, *point)
    local = local_algebra_basis(f, m)
    assert local.local_ideal.generators == colon_oracle(f, m)
    assert len(local.basis) == rank == local_a1_degree(f, m).rank


def planted_system(rng):
    """A random 2-variable system with a rational zero at (a, b).

    Each f_i is a polynomial in (x - a, y - b) without constant term; the
    linear coefficients are often zero, so the zero is often multiple.
    """
    ring = PolyRing(QQ, ("x", "y"))
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    u, v = ring.from_string(f"x - ({a})"), ring.from_string(f"y - ({b})")
    polys = []
    for _ in range(2):
        f = ring.zero()
        for i in range(4):
            for j in range(4 - i):
                if 0 < i + j and rng.random() < 0.5:
                    f = f + rng.choice([-2, -1, 1, 2, 3]) * u ** i * v ** j
        polys.append(f)
    return EndoSystem(ring, tuple(polys)), Ideal(ring, (u, v))


def test_local_ideal_matches_colon_oracle_on_planted_zeros():
    rng = random.Random(20231201)
    checked, ranks = 0, set()
    while checked < 24:
        f, m = planted_system(rng)
        try:
            standard_monomials(groebner_basis(Ideal(f.ring, f.polys)))
        except ValueError:  # a curve of zeros: no m-primary component
            continue
        local = local_algebra_basis(f, m)
        assert local.local_ideal.generators == colon_oracle(f, m)
        ranks.add(len(local.basis))
        checked += 1
    assert len(ranks) > 1  # simple and multiple zeros both occur


def count_bases(monkeypatch):
    runs = []
    original = poly._buchberger

    def counting(ring, gens, *rest):
        runs.append(ring.order)
        return original(ring, gens, *rest)

    monkeypatch.setattr(poly, "_buchberger", counting)
    return runs


def count_walks(monkeypatch):
    """The bases whose staircase is walked, one entry per walk: the
    `GroebnerBasis._stairs` descriptor re-made, of its own type, around a
    counting copy of its function."""
    prop = vars(poly.GroebnerBasis)["_stairs"]
    walk, walks = getattr(prop, "func", None) or prop.fget, []

    def counting(gb):
        walks.append(gb)
        return walk(gb)

    wrapped = type(prop)(counting)
    if hasattr(wrapped, "__set_name__"):
        wrapped.__set_name__(poly.GroebnerBasis, "_stairs")
    monkeypatch.setattr(poly.GroebnerBasis, "_stairs", wrapped)
    return walks


WALKED_QUERIES = {"global": lambda f, m: global_a1_degree(f),
                  "local degree": local_a1_degree,
                  "local basis": local_algebra_basis}


@pytest.mark.parametrize("query", list(WALKED_QUERIES))
@pytest.mark.parametrize("field, names, polys, point", [
    (QQ, ("x",), [QUARTIC], ["x^2 + x + 1"]),
    (gf_construct(7, 1), ("x", "y"), ["x^2 - y^3", "y^2 - x^3"], ["x", "y"]),
], ids=["quartic", "GF(7) cusps"])
def test_each_basis_is_walked_once(monkeypatch, query, field, names, polys,
                                   point):
    # The staircase is kept on its basis: the local ideal's dimension test
    # and the Gram or the basis read the same walk.  The points are not
    # simple, so the local queries grow I + m^k through several bases.
    ring, f = system(names, polys, field)
    m = Ideal.of(ring, *point)
    runs, walks = count_bases(monkeypatch), count_walks(monkeypatch)
    result = WALKED_QUERIES[query](f, m)
    monkeypatch.undo()
    assert len(walks) == len(runs) == len({id(gb) for gb in walks})
    assert (len(runs) == 1) if query == "global" else (len(runs) >= 2)
    assert result == WALKED_QUERIES[query](f, m)


@pytest.mark.parametrize("field", [QQ, gf_construct(7, 1)], ids=str)
@pytest.mark.parametrize("polys", [["x^2 - y^3", "y^2 - x^3"], ["x^2", "y^2"]],
                         ids=["cusp", "squares"])
def test_rational_point_with_vanishing_jacobian_grows(monkeypatch, field,
                                                      polys):
    # J(0) = 0, so I + m^2 is not m: the loop must run.  Both tangent cones
    # are x^2 and y^2, with no common line, so the multiplicity is 2 * 2.
    ring, f = system(("x", "y"), polys, field)
    m = Ideal.of(ring, "x", "y")
    runs = count_bases(monkeypatch)
    local = local_algebra_basis(f, m)
    assert len(runs) >= 2
    monkeypatch.undo()
    assert local.local_ideal.generators == colon_oracle(f, m)
    assert len(local.basis) == 4 == local_a1_degree(f, m).rank


def simple_planted_system(rng, field):
    """(system, point, det J(p)): a 2-variable system over a finite field
    with a zero at a random rational point p = (a, b), its linear part a
    random invertible matrix L in (x - a, y - b), and random terms of
    degree 2 and 3; J(p) = L."""
    ring = PolyRing(field, ("x", "y"))
    elements = list(field.elements())
    while True:
        lin = [[rng.choice(elements) for _ in range(2)] for _ in range(2)]
        det = lin[0][0] * lin[1][1] - lin[0][1] * lin[1][0]
        if det:
            break
    a, b = rng.choice(elements), rng.choice(elements)
    u, v = ring.variable(0) - a, ring.variable(1) - b
    polys = []
    for row in lin:
        f = row[0] * u + row[1] * v
        for i in range(4):
            for j in range(4 - i):
                if i + j > 1 and rng.random() < 0.4:
                    f = f + rng.choice(elements) * u ** i * v ** j
        polys.append(f)
    return EndoSystem(ring, tuple(polys)), Ideal(ring, (u, v)), det


@pytest.mark.parametrize("field", [gf_construct(7, 1), gf_construct(5, 2)],
                         ids=str)
def test_simple_point_is_its_own_local_ideal(monkeypatch, field):
    rng = random.Random(field.order)
    for _ in range(8):
        f, m, det = simple_planted_system(rng, field)
        runs = count_bases(monkeypatch)
        local = local_algebra_basis(f, m)
        assert runs == ["grevlex"]
        monkeypatch.undo()
        assert local.local_ideal.generators == colon_oracle(f, m)
        assert local.basis == (f.ring.one(),)
        # At a simple zero the local degree is <det J(p)>.
        assert local_a1_degree(f, m).gram == ((det,),)


def cubic_planted_system(rng, field, n):
    """(system, point, p): f_i = c_i*u_i^3 plus random terms of degree 1
    and 2 in u = x - p, for a random rational point p.  The top forms
    c_i*u_i^3 meet only at 0, so every zero is isolated; the linear terms
    are sparse, so J(p) is often singular and the zero multiple."""
    ring = PolyRing(field, tuple(f"x{i}" for i in range(n)))
    if field is QQ:
        def scalar():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    else:
        elements = list(field.elements())

        def scalar():
            return rng.choice(elements)
    p = [scalar() for _ in range(n)]
    u = [ring.variable(i) - a for i, a in enumerate(p)]
    polys = []
    for i in range(n):
        c = scalar()
        while not c:
            c = scalar()
        f = c * u[i] ** 3
        for j in range(n):
            if rng.random() < 0.6:
                f = f + scalar() * u[j]
            for k in range(j, n):
                if rng.random() < 0.4:
                    f = f + scalar() * u[j] * u[k]
        polys.append(f)
    return EndoSystem(ring, tuple(polys)), Ideal(ring, tuple(u)), p


def jacobian_determinant_at(f, p):
    """det J(p) by evaluating each partial derivative's terms at p and
    expanding over permutations, in the field's own arithmetic."""
    n, zero = len(p), f.ring.field.zero()

    def partial(g, j):
        value = zero
        for e, c in g.terms.items():
            if e[j]:
                term = c * e[j]
                for k, a in enumerate(p):
                    term = term * a ** (e[k] - (k == j))
                value = value + term
        return value

    jac = [[partial(g, j) for j in range(n)] for g in f.polys]
    det = zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = prod((jac[i][perm[i]] for i in range(n)),
                    start=f.ring.field.one())
        det = det - term if inversions % 2 else det + term
    return det


@pytest.mark.parametrize("field", [QQ, gf_construct(7, 1), gf_construct(5, 2)],
                         ids=str)
def test_simple_zero_degree_is_the_jacobian_determinant(monkeypatch, field):
    # Kass-Wickelgren: at a simple rational zero p the local degree is
    # <det J(p)>, and on the basis {1} the Bezoutian's Gram is
    # det B(p, p) = det J(p).  The shortcut must agree with the Bezoutian
    # path on the same basis and with J(p) evaluated directly, and take
    # the Jacobian's determinant only.  Every other zero builds the
    # Bezoutian and takes its determinant too, unless its local rank is
    # the Bezout number: then I + m^k = I, there are no zeros at infinity,
    # and over GF(q), or over QQ up to the residue's rank limit, the residue
    # is tried, whose normalizer is the one determinant after the
    # Jacobian's.  Over QQ a Gram with a vanishing leading minor (by Jacobi,
    # G' has a vanishing trailing one) then takes the Bezoutian too.
    rng = random.Random(str(field))
    calls = []

    def recording(name):
        original = getattr(degrees, name)

        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    for name in ("bezoutian_matrix", "determinant"):
        monkeypatch.setattr(degrees, name, recording(name))
    simple = multiple = residue = 0
    for n in (1, 2, 3):
        for _ in range(12):
            f, m, p = cubic_planted_system(rng, field, n)
            det = jacobian_determinant_at(f, p)
            gb, jac = degrees._local_ideal(f, m)
            calls.clear()
            beta = local_a1_degree(f, m)
            if det:
                simple += 1
                assert jac == det and calls == ["determinant"]
                assert beta.gram == ((det,),)
                assert beta.gram == degrees._degree_from_basis(f, gb).gram
            else:
                multiple += 1
                assert jac is None
                tried = beta.rank == f.bezout_number and (
                    field.kind == "GF" or beta.rank <=
                    degrees.MAX_QQ_RESIDUE_RANK_PER_VARIABLE * n)
                expected = ["determinant"] * (1 + tried)
                if tried and (field.kind == "GF" or
                              not has_a_vanishing_leading_minor(beta.gram)):
                    residue += 1
                else:  # a residue left over QQ has taken its normalizer
                    expected += ["bezoutian_matrix", "determinant"]
                assert calls == expected
                assert beta.rank > 1
    assert simple > 0 and multiple > residue > 0


def test_simple_zero_jacobian_is_read_off_the_kernel_terms(monkeypatch):
    # The partials are the kernel's derivatives of each f's packed terms,
    # and det J(p) is their determinant modulo the point's basis: no public
    # terms are built.  At (1/2, -1/3) det J = 1/3 * 15 - 3 * (-2/3) = 7.
    ring, f = system(("x", "y"), [
        "(2*x - 1)*(x + y) + 3*y + 1",
        "(3*y + 1)^2 + (2*x - 1)*y + 5*(3*y + 1)"])
    point = Ideal.of(ring, "2*x - 1", "3*y + 1")

    def refused(*args):
        raise AssertionError("a simple zero builds no public terms")

    monkeypatch.setattr(poly, "_public", refused)
    beta = local_a1_degree(f, point)
    assert beta.gram == ((Fraction(7),),)


def test_degree_paths_build_no_public_terms(monkeypatch):
    # From the parser to the Gram matrix every polynomial stays in the
    # kernel's form: the parsed system, its basis, the Bezoutian entries,
    # the reduced determinant and a product by a scalar in t.
    def refused(*args):
        raise AssertionError("a degree path built public terms")

    monkeypatch.setattr(poly, "_public", refused)
    F25 = gf_construct(5, 2)
    ring25 = PolyRing(F25, ("x", "y"))
    # (1, -2) is a simple zero, with det J = -1 * 0 - 3 * 3.
    ring, planted = system(("x", "y"), ["(x - 1)*(x + y) + 3*(y + 2)",
                                        "(y + 2)^2 + 5*(x - 1) + (x - 1)*y"])
    classes = [
        global_a1_degree(system(("x", "y"), ["2*x^2 - 3*x*y + 1",
                                             "3*x*y + 2*y^2 - x"])[1]),
        global_a1_degree(system(("x", "y"), ["x^2 - y^3 + 1", "2*x*y - 3"],
                                gf_construct(7, 1))[1]),
        global_a1_degree(EndoSystem(ring25, (
            ring25.from_string("x^2 - y^2 + 1") * F25.coerce((1, 1)),
            ring25.from_string("2*x*y - 3")))),
        local_a1_degree(planted, Ideal.of(ring, "x - 1", "y + 2")),
    ]
    monkeypatch.undo()
    assert [[[str(c) for c in row] for row in beta.gram]
            for beta in classes] == [
        [["-3", "0", "4/3", "-26/3"], ["0", "-6", "4", "0"],
         ["4/3", "4", "6", "0"], ["-26/3", "0", "0", "0"]],
        [["2", "0", "0", "0", "2"], ["0", "0", "0", "2", "0"],
         ["0", "0", "2", "0", "0"], ["0", "2", "0", "0", "0"],
         ["2", "0", "0", "0", "0"]],
        [["3*t + 3", "0", "0", "2*t + 2"], ["0", "2*t + 2", "0", "0"],
         ["0", "0", "2*t + 2", "0"], ["2*t + 2", "0", "0", "0"]],
        [["-9"]]]


# -- local-global oracle at closed points --------------------------------------


def field_scalars(field):
    """The scalars the planted systems draw from: small integers over QQ,
    every element over a finite field."""
    if field is QQ:
        return [Fraction(c) for c in range(-3, 4)]
    return list(field.elements())


def has_root(coeffs, scalars, zero):
    """Whether the polynomial with low-to-high coefficients coeffs
    vanishes at one of scalars, by Horner's rule in field arithmetic."""
    for a in scalars:
        value = zero
        for c in reversed(coeffs):
            value = value * a + c
        if not value:
            return True
    return False


def irreducible(rng, field, d):
    """Low-to-high coefficients of a random monic irreducible of degree
    d <= 3: one with no root in the field.  Over QQ its coefficients are
    integers, so a rational root is an integer dividing the constant term
    (rational root theorem); over GF(q) every element is tried."""
    scalars, one = field_scalars(field), field.one()
    while True:
        coeffs = [rng.choice(scalars) for _ in range(d)] + [one]
        if d == 1:
            return coeffs
        roots = scalars
        if field is QQ:
            c = int(coeffs[0])
            if not c:  # t divides it
                continue
            roots = [Fraction(s * r) for r in range(1, abs(c) + 1)
                     if c % r == 0 for s in (1, -1)]
        if not has_root(coeffs, roots, field.zero()):
            return coeffs


def invertible_matrix(rng, field, n):
    """L * U for L unit lower triangular and U upper triangular with a
    nonzero diagonal, both with random entries."""
    scalars = field_scalars(field)
    units = [c for c in scalars if c]
    lower = [[rng.choice(scalars) if j < i else field.one() if j == i
              else field.zero() for j in range(n)] for i in range(n)]
    upper = [[rng.choice(scalars) if j > i else rng.choice(units) if j == i
              else field.zero() for j in range(n)] for i in range(n)]
    return [[sum((lower[i][k] * upper[k][j] for k in range(n)), field.zero())
             for j in range(n)] for i in range(n)]


def substitute(f, images):
    """f with each variable x_k replaced by the polynomial images[k]."""
    out = f.ring.zero()
    for e, c in f.terms.items():
        term = f.ring.one()
        for image, k in zip(images, e):
            term = term * image ** k
        out = out + term * c
    return out


def planted_closed_points(rng, field, n, shape):
    """(system, points): the ideal (g(x0), x1 - h1(x0), ..., x_(n-1) -
    h_(n-1)(x0)) for g the product of p_j^m_j over the (deg p_j, m_j) of
    shape, the p_j distinct monic irreducibles.  Its zeros are the closed
    points (p_j(x0), x_i - h_i(x0)), whose local algebras are
    k[t]/(p_j^m_j), of rank m_j * deg p_j.  The generators are mixed
    (f_i += q_i * f_0 for random linear q_i, then an invertible matrix),
    which keeps the ideal, and a random invertible linear change of
    coordinates moves the system and every point out of shape position.
    points lists (point ideal, deg p_j, m_j)."""
    ring = PolyRing(field, tuple(f"x{i}" for i in range(n)))
    scalars = field_scalars(field)
    x = [ring.variable(i) for i in range(n)]

    def univariate(coeffs):
        return sum((x[0] ** k * c for k, c in enumerate(coeffs)), ring.zero())

    factors = []
    while len(factors) < len(shape):
        p = irreducible(rng, field, shape[len(factors)][0])
        if p not in factors:
            factors.append(p)
    g = prod((univariate(p) ** m for p, (_, m) in zip(factors, shape)),
             start=ring.one())
    tails = [x[i] - univariate([rng.choice(scalars) for _ in range(3)])
             for i in range(1, n)]
    polys = [g] + [f + g * sum((x[k] * rng.choice(scalars) for k in range(n)),
                               ring.constant(rng.choice(scalars)))
                   for f in tails]
    mix = invertible_matrix(rng, field, n)
    polys = [sum((polys[j] * mix[i][j] for j in range(n)), ring.zero())
             for i in range(n)]
    move = invertible_matrix(rng, field, n)
    images = [sum((x[j] * move[k][j] for j in range(n)), ring.zero())
              for k in range(n)]
    points = [(Ideal(ring, tuple(substitute(h, images) for h in
                                 [univariate(p)] + tails)), d, m)
              for p, (d, m) in zip(factors, shape)]
    return EndoSystem(ring, tuple(substitute(f, images) for f in polys)), \
        points


# (deg p_j, m_j) of each planted factor: simple rational zeros (1, 1),
# rational zeros with J(p) = 0 (1, m > 1) and non-rational points (d > 1),
# some of them multiple.
CLOSED_POINT_SHAPES = {
    2: [((1, 1), (1, 2), (2, 1)), ((3, 1), (1, 3)), ((2, 2), (1, 1))],
    3: [((1, 1), (1, 2)), ((2, 2),), ((3, 1), (1, 1))],
}


@pytest.mark.parametrize("field", [QQ, gf_construct(7, 1), gf_construct(5, 2),
                                   gf_construct(3, 3)], ids=str)
def test_local_degrees_at_closed_points_sum_to_the_global_degree(
        monkeypatch, field):
    # Kass-Wickelgren; Brazelton-McKean-Pauli: for isolated zeros the
    # global A1-degree is the sum over the closed points of the local
    # degrees, each already a form over k.  Each point's rank is m_j times
    # its degree, and only a simple rational zero takes the <det J(p)>
    # route.
    rng = random.Random(str(field))
    routes = []
    original = degrees._local_ideal

    def recording(f, point):
        gb, jac = original(f, point)
        routes.append(jac is not None)
        return gb, jac

    monkeypatch.setattr(degrees, "_local_ideal", recording)
    seen = set()
    for n, shapes in CLOSED_POINT_SHAPES.items():
        for shape in shapes:
            f, points = planted_closed_points(rng, field, n, shape)
            total = empty_form(field)
            for point, d, m in points:
                routes.clear()
                local = local_a1_degree(f, point)
                assert local.rank == d * m
                route = "simple" if (d, m) == (1, 1) else \
                    "rational, J(p) = 0" if d == 1 else "non-rational"
                assert routes == [route == "simple"]
                seen.add(route)
                total = add_gw(total, local)
            alpha = global_a1_degree(f)
            assert alpha.rank == sum(d * m for _, d, m in points)
            assert is_isomorphic_form(total, alpha)
    assert seen == {"simple", "rational, J(p) = 0", "non-rational"}


def lifted(f, ring):
    """f, over GF(p), as a polynomial of ring, over a GF(p^k)."""
    return Polynomial(ring, {e: ring.field.coerce(c.coeffs[0])
                             for e, c in f.terms.items()})


def coerced(beta, field):
    """beta's Gram, over GF(p), with its entries coerced into field."""
    return [[field.coerce(c) for c in row] for row in beta.gram]


@pytest.mark.parametrize("field", [gf_construct(5, 2), gf_construct(3, 3),
                                   gf_construct(11, 2)], ids=str)
def test_descended_degrees_are_the_field_degrees(field):
    # A system with coefficients in GF(p) runs over GF(q) on its own ring,
    # on the packed ints that are its residues.  Its Gram matrices, global
    # and at every planted closed point of GF(p), are those of the same
    # system over GF(p), computed independently and coerced into GF(q), and
    # the classes are over GF(q).
    rng = random.Random(f"descent:{field}")
    prime = gf_construct(field.char, 1)
    grams = 0
    for n, shapes in CLOSED_POINT_SHAPES.items():
        for shape in shapes:
            base, points = planted_closed_points(rng, prime, n, shape)
            ring = PolyRing(field, base.ring.variables)
            f = EndoSystem(ring, tuple(lifted(g, ring) for g in base.polys))
            alpha = global_a1_degree(f)
            assert [list(row) for row in alpha.gram] == \
                coerced(global_a1_degree(base), field)
            assert alpha.field == field
            for point, _, _ in points:
                lifted_point = Ideal(ring, tuple(lifted(g, ring)
                                                 for g in point.generators))
                local = local_a1_degree(f, lifted_point)
                assert [list(row) for row in local.gram] == \
                    coerced(local_a1_degree(base, point), field)
                assert local.field == field
                grams += 1
    assert grams == sum(len(shape) for shapes in CLOSED_POINT_SHAPES.values()
                        for shape in shapes)


# -- rational classes at Bezout scale ------------------------------------------


def planted_bezout_system(degrees_, seed):
    """(system, zeros): f_i = prod_j (x_i - a_ij) with multiples of the
    earlier f_k of no larger degree mixed in, then x_i <- x_i + c_i*x_(i+1).

    The ideal is that of the f_i, so the zeros are the grid of the a_ij
    pulled back through the substitution, all simple.
    """
    import sympy
    rng = random.Random(seed)
    n = len(degrees_)
    xs = sympy.symbols(f"x1:{n + 1}")
    roots = [rng.sample([a for a in range(-6, 7) if a], d) for d in degrees_]
    f = [sympy.prod([x - a for a in r]) for x, r in zip(xs, roots)]
    g = []
    for i in range(n):
        gi = f[i]
        for k in range(i):
            if degrees_[k] <= degrees_[i]:
                h = rng.choice([-2, -1, 1, 2])
                if degrees_[k] < degrees_[i]:
                    h += rng.choice([-1, 1]) * rng.choice(xs)
                gi += h * f[k]
        g.append(gi)
    c = [rng.choice([-2, -1, 1, 2]) for _ in range(n - 1)]
    shift = {xs[i]: xs[i] + c[i] * xs[i + 1] for i in range(n - 1)}
    g = [sympy.expand(gi.subs(shift, simultaneous=True)) for gi in g]
    zeros = []
    for z in itertools.product(*roots):
        x = list(z)
        for i in range(n - 2, -1, -1):  # invert the substitution
            x[i] = z[i] - c[i] * x[i + 1]
        zeros.append(dict(zip(xs, x)))
    names = tuple(str(x) for x in xs)
    ring = PolyRing(QQ, names)
    system_ = EndoSystem.of(ring, *(str(gi).replace("**", "^") for gi in g))
    jac = sympy.Matrix(g).jacobian(xs)
    return system_, g, jac, zeros


@pytest.mark.parametrize("degrees_", [(4, 4), (3, 3, 2), (3, 3, 3)])
def test_global_degree_is_the_sum_of_jacobians_at_planted_zeros(degrees_):
    f, g, jac, zeros = planted_bezout_system(degrees_, sum(degrees_))
    dets = []
    for z in zeros:
        assert all(gi.subs(z) == 0 for gi in g)
        dets.append(Fraction(int(jac.subs(z).det())))
    assert all(dets)  # simple zeros
    start = time.perf_counter()
    beta = global_a1_degree(f)
    keys = list(get_invariants(beta).hasse_witt)
    elapsed = time.perf_counter() - start
    expected = make_diagonal_form(QQ, dets)
    assert beta.rank == len(zeros) == prod(degrees_)
    assert is_isomorphic_form(beta, expected)
    # the recorded primes are fixed by the class, not by its representative
    assert keys == list(get_invariants(expected).hasse_witt)
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("degrees_, c", [((3, 3, 2), 3), ((4, 5), 5),
                                         ((3, 3, 3), 3)])
def test_random_rational_systems_classify_end_to_end(monkeypatch, degrees_,
                                                    c):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for dataclasses
    spec.loader.exec_module(workloads)
    polys = workloads.random_system(random.Random(1), degrees_, top=c, low=c)
    names = workloads._var_names(len(degrees_))
    _, f = system(names, [workloads.to_string(p, names) for p in polys])
    start = time.perf_counter()
    inv = get_invariants(global_a1_degree(f))
    elapsed = time.perf_counter() - start
    assert inv.rank == prod(degrees_)
    assert elapsed < 1.0, elapsed


# -- Eisenbud-Khimshiashvili-Levine --------------------------------------------


def test_signature_counts_real_zeros_with_jacobian_signs():
    """EKL: the real signature of the degree is the sum of sign det Jac(f)
    over the real zeros, here irrational ones among non-real ones.

    The oracle reads the zeros from a lex basis in shape position,
    ``{x - p(y), q(y)}`` with ``q`` squarefree, through ``real_roots(q)``,
    and each sign from a 50-digit evaluation.
    """
    import sympy
    rng = random.Random(20231215)
    x, y = sympy.symbols("x y")
    ring = PolyRing(QQ, ("x", "y"))

    def coupled(d):
        while True:
            f = sympy.expand(sum(
                rng.choice([-3, -2, -1, 1, 2, 3]) * x ** i * y ** j
                for i in range(d + 1) for j in range(d + 1 - i)
                if rng.random() < 0.6))
            if f != 0 and any(i and j for i, j in sympy.Poly(f, x, y).monoms()):
                return f

    checked, with_nonreal, with_irrational, signatures = 0, 0, 0, set()
    while checked < 20:
        d1, d2 = rng.choice([(2, 2), (2, 3), (3, 3)])
        f, g = coupled(d1), coupled(d2)
        start = time.perf_counter()
        lex = sympy.groebner([f, g], x, y, order="lex").exprs
        if len(lex) != 2 or lex[1].has(x) or sympy.degree(lex[0], x) != 1 \
                or sympy.Poly(lex[0], x).LC().has(y):
            continue  # not in shape position
        q = sympy.Poly(lex[1], y)
        if not 4 <= q.degree() <= 9 or sympy.gcd(q, q.diff(y)).degree() > 0:
            continue
        p = sympy.solve(lex[0], x)[0]
        jac = sympy.Matrix([f, g]).jacobian([x, y]).det()
        roots = sympy.real_roots(q)
        signs = 0
        for r in roots:
            r50 = r.evalf(50)
            v = jac.subs({x: p.subs(y, r50), y: r50}).evalf(50)
            assert abs(v) > 1e-30  # simple zeros
            signs += 1 if v > 0 else -1
        beta = global_a1_degree(EndoSystem.of(
            ring, *(str(h).replace("**", "^") for h in (f, g))))
        assert beta.rank == q.degree()
        assert get_signature(beta) == signs
        assert time.perf_counter() - start < 1.0
        checked += 1
        with_nonreal += len(roots) < q.degree()
        with_irrational += any(not r.is_rational for r in roots)
        signatures.add(signs)
    assert with_nonreal and with_irrational and len(signatures) >= 3


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for dataclasses
    spec.loader.exec_module(workloads)
    return workloads


def test_signature_counts_real_zeros_in_three_variables(monkeypatch):
    """EKL in three variables, with an exact oracle and no sympy.

    g is triangular: g_i is a product of an odd number of factors
    u*y_i - v, with u and v affine in y_1..y_{i-1}, and g_3 may carry a
    factor y_3^2 + 1 for non-real zeros.  The real zeros of g are rational,
    read fiber by fiber, and det Jac g is the product of the dg_i/dy_i.
    The system is f(x) = g(A x) for a unimodular integer A, so its
    signature is det A times the sum of sign det Jac g over those zeros.
    """
    w = _workloads(monkeypatch)
    rng = random.Random(20261018)
    n = 3
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    ring = PolyRing(QQ, ("x1", "x2", "x3"))

    def affine(i, lead):
        f = {(0,) * n: rng.choice([c for c in range(-2, 3) if c or not lead])}
        for j in range(i if rng.random() < 0.5 else 0):
            f = w._add(f, {unit[j]: rng.randint(-2, 2)})
        return f

    def real_zeros(factors):
        """The zeros of g with real y_1..y_i, fiber by fiber, or None when
        some u vanishes on a fiber."""
        zeros = [()]
        for i, row in enumerate(factors):
            grown = []
            for z in zeros:
                point = z + (0,) * (n - i)
                for u, v in row:
                    lead = w._evaluate(u, point)
                    if not lead:
                        return None
                    grown.append(z + (w._evaluate(v, point) / lead,))
            zeros = grown
        return zeros

    checked, with_nonreal, signatures = 0, 0, set()
    while checked < 10:
        counts = rng.choice([(1, 1, 3), (1, 3, 1), (3, 1, 1), (1, 3, 3),
                             (3, 1, 3), (3, 3, 1)])
        factors = [[(affine(i, True), affine(i, False))
                    for _ in range(m)] for i, m in enumerate(counts)]
        nonreal = rng.random() < 0.5
        gs = []
        for i, row in enumerate(factors):
            g = {(0,) * n: 1}
            for u, v in row:
                g = w._mul(g, w._add(w._mul(u, {unit[i]: 1}),
                                     {e: -c for e, c in v.items()}))
            gs.append(g)
        if nonreal:
            gs[2] = w._mul(gs[2], {(0, 0, 2): 1, (0, 0, 0): 1})
        zeros = real_zeros(factors)
        if zeros is None:
            continue
        jacs = [prod(w._evaluate(w._derivative(g, i), z)
                     for i, g in enumerate(gs)) for z in zeros]
        rows = w._unimodular(rng, n)
        system_ = EndoSystem.of(ring, *(
            w.to_string(w._substitute(g, rows), ring.variables) for g in gs))
        if not all(jacs) or system_.bezout_number > degrees.MAX_BEZOUT:
            continue  # a double zero, or too large
        start = time.perf_counter()
        beta = global_a1_degree(system_)
        assert time.perf_counter() - start < 1.0
        signs = w._det(rows) * sum(1 if j > 0 else -1 for j in jacs)
        assert beta.rank == prod(counts) + 2 * nonreal * counts[0] * counts[1]
        assert get_signature(beta) == signs
        checked += 1
        with_nonreal += nonreal
        signatures.add(signs)
    assert with_nonreal and len(signatures) >= 3, signatures


# -- the Gram matrix against the trace form -----------------------------------


def trace_form_inverse(field, names, gens, polys, basis):
    """(Tr_Q(J^-1 * a_i * a_j))^-1 with Q = k[x]/(gens), gens a grevlex
    Groebner basis as sympy expressions, a_i the exponent tuples of
    `basis` (1 first) and J the Jacobian determinant of `polys`; None when
    J is not a unit in Q.

    sympy supplies the normal forms of x_v * a_j, which give the
    multiplication matrices M_v, and of J.  Everything else is matrix
    arithmetic over Fractions (QQ) or ints mod p (GF(p)): M_{a_k} as
    products of the M_v, the trace functional t_k = Tr(M_{a_k}),
    u = J^-1 from M_J u = e_1, and Tr(J^-1 a_i a_j) = t^T M_{a_i} M_{a_j} u.
    """
    import sympy
    p = None if field.kind == "QQ" else field.char
    syms = sympy.symbols(names)
    opts = {"order": "grevlex"} if p is None else \
        {"order": "grevlex", "modulus": p}
    index = {a: k for k, a in enumerate(basis)}
    r = len(basis)

    def scalar(c):
        c = sympy.Rational(c)
        return Fraction(int(c.p), int(c.q)) if p is None else \
            int(c.p) * pow(int(c.q), -1, p) % p

    def coords(expr):
        out = [scalar(0)] * r
        e = sympy.Poly(expr, *syms).monoms()
        if len(e) == 1 and e[0] in index:  # a basis monomial is reduced
            out[index[e[0]]] = scalar(1)
            return out
        _, nf = sympy.reduced(expr, gens, *syms, **opts)
        for e, c in sympy.Poly(nf, *syms).terms():
            out[index[e]] = scalar(c)  # KeyError: off the basis
        return out

    def reduce(x):
        return x if p is None else x % p

    def matmul(a, b):
        out = []
        for row in a:
            terms = [(x, b[k]) for k, x in enumerate(row) if x]
            out.append([reduce(sum(x * col[j] for x, col in terms))
                        for j in range(r)])
        return out

    def inverse(m):
        """m^-1 by Gauss-Jordan, or None if m is singular."""
        a = [list(row) + [scalar(int(i == j)) for j in range(r)]
             for i, row in enumerate(m)]
        for c in range(r):
            pivot = next((i for i in range(c, r) if a[i][c]), None)
            if pivot is None:
                return None
            a[c], a[pivot] = a[pivot], a[c]
            inv = 1 / a[c][c] if p is None else pow(a[c][c], -1, p)
            a[c] = [reduce(x * inv) for x in a[c]]
            for i in range(r):
                if i != c and a[i][c]:
                    f = a[i][c]
                    a[i] = [reduce(x - f * y) for x, y in zip(a[i], a[c])]
        return [row[r:] for row in a]

    x = [[coords(s * sympy.prod([t ** k for t, k in zip(syms, a)]))
          for a in basis] for s in syms]
    mult = [[list(col) for col in zip(*m)] for m in x]  # columns -> rows
    assert basis[0] == (0,) * len(names)
    m_of = [[[scalar(int(i == j)) for j in range(r)] for i in range(r)]]
    for a in basis[1:]:
        v = next(v for v, k in enumerate(a) if k)
        lower = a[:v] + (a[v] - 1,) + a[v + 1:]
        m_of.append(matmul(mult[v], m_of[index[lower]]))
    trace = [reduce(sum(m[i][i] for i in range(r))) for m in m_of]
    exprs = [sympy.sympify(f.replace("^", "**")) for f in polys]
    jac = sympy.Matrix([[sympy.diff(f, s) for s in syms] for f in exprs]).det()
    j = coords(sympy.expand(jac))
    m_j = [[reduce(sum(c * m[i][k] for c, m in zip(j, m_of)))
            for k in range(r)] for i in range(r)]
    m_j_inv = inverse(m_j)
    if m_j_inv is None:
        return None
    u = [row[0] for row in m_j_inv]
    rows = [[reduce(sum(trace[k] * m[k][i] for k in range(r)))
             for i in range(r)] for m in m_of]  # t^T M_{a_i}
    cols = [[reduce(sum(m[i][k] * u[k] for k in range(r)))
             for i in range(r)] for m in m_of]  # M_{a_j} u
    form = [[reduce(sum(a * b for a, b in zip(row, col))) for col in cols]
            for row in rows]
    return inverse(form)


def as_oracle_scalar(c, field):
    return c if field.kind == "QQ" else c.coeffs[0]


@pytest.mark.parametrize("field, shapes", [
    (QQ, [(2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 2, 3)]),
    (gf_construct(101, 1), [(2, 2), (2, 2, 2), (3, 3), (3, 3, 3)]),
    (gf_construct(1009, 1), [(2, 3), (2, 2, 3)]),
], ids=["QQ", "GF(101)", "GF(1009)"])
def test_global_gram_is_the_inverse_trace_form(monkeypatch, field, shapes):
    # Scheja-Storch: the Bezoutian's Gram on a basis a_i of Q = k[x]/(f)
    # inverts the Gram of the form eta(a_i a_j), and Tr(b) = eta(J b).
    import sympy
    w = _workloads(monkeypatch)
    checked = skipped = 0
    ranks = []
    for seed, shape in enumerate(shapes):
        names = w._var_names(len(shape))
        polys = [w.to_string(f, names) for f in
                 w.random_system(random.Random(seed), shape, top=3, low=3)]
        ring, f = system(names, polys, field)
        beta = global_a1_degree(f)
        basis = [m.leading_monomial() for m in
                 standard_monomials(groebner_basis(Ideal(ring, f.polys)))]
        opts = {} if field.kind == "QQ" else {"modulus": field.char}
        syms = sympy.symbols(names)
        gens = list(sympy.groebner(
            [sympy.sympify(g.replace("^", "**")) for g in polys], *syms,
            order="grevlex", **opts).exprs)
        expected = trace_form_inverse(field, names, gens, polys, basis)
        if expected is None:
            skipped += 1
            continue
        assert [[as_oracle_scalar(c, field) for c in row]
                for row in beta.gram] == expected
        ranks.append(beta.rank)
        checked += 1
    assert skipped == 0 and checked == len(shapes)
    assert ranks == [prod(shape) for shape in shapes]


def residue_gram_inverse(f):
    """G^-1 for G_ab = eta(e_a * e_b) on the standard monomials e_a, with
    eta the global residue of a system with no zeros at infinity:
    eta(h) = coeff_sigma NF(h) / coeff_sigma NF(E), where sigma is the one
    standard monomial of the top degree rho = sum (deg f_i - 1) and
    E = det(a_ij) for the top forms f_i^top = sum_j a_ij x_j.  Only public
    normal forms and the field's own element arithmetic; None unless the
    staircase has prod deg f_i monomials and one of degree rho, the most."""
    ring, field = f.ring, f.ring.field
    n = ring.nvars
    gb = groebner_basis(Ideal(ring, f.polys))
    basis = standard_monomials(gb)
    degrees_ = [g.total_degree() for g in f.polys]
    rho = sum(degrees_) - n
    tops = [m for m in basis if m.total_degree() >= rho]
    if len(basis) != f.bezout_number or len(tops) != 1 or \
            tops[0].total_degree() != rho:
        return None
    sigma = tops[0].leading_monomial()
    a = [[ring.zero()] * n for _ in range(n)]
    for i, (g, d) in enumerate(zip(f.polys, degrees_)):
        for e, c in g.terms.items():
            if sum(e) == d:  # the term goes to its first variable
                j = next(j for j, x in enumerate(e) if x)
                a[i][j] = a[i][j] + Polynomial.make(ring, {
                    tuple(x - (k == j) for k, x in enumerate(e)): c})
    E = ring.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = prod((a[i][perm[i]] for i in range(n)), start=ring.one())
        E = E - term if inversions % 2 else E + term
    zero, one = field.zero(), field.one()

    def coeff(h):
        return normal_form(h, gb).terms.get(sigma, zero)

    scale = coeff(E)
    r = len(basis)
    m = [[coeff(x * y) / scale for y in basis] +
         [one if i == j else zero for j in range(r)]
         for i, x in enumerate(basis)]
    for c in range(r):  # Gauss-Jordan on [G | I]
        p = next(i for i in range(c, r) if m[i][c])
        m[c], m[p] = m[p], m[c]
        inv = one / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(r):
            if i != c and m[i][c]:
                g = m[i][c]
                m[i] = [x - g * y for x, y in zip(m[i], m[c])]
    return [row[r:] for row in m]


def residue_oracle_system(rng, field, shape, t):
    """f_i = c * x_i^d_i plus random terms of degree at most d_i, each
    coefficient drawn from QQ's small fractions, GF(p), or with t from all
    of GF(p^k)."""
    n = len(shape)
    ring = PolyRing(field, tuple("xyzw"[:n]))

    def scalar():
        if field.kind == "QQ":
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if t:
            return field.coerce(tuple(rng.randrange(field.char)
                                      for _ in range(field.degree)))
        return field.coerce(rng.randrange(field.char))

    polys = []
    for i, d in enumerate(shape):
        terms = {e: scalar() for e in itertools.product(range(d + 1), repeat=n)
                 if sum(e) <= d and rng.random() < 0.6}
        terms[tuple(d * (k == i) for k in range(n))] = scalar() or 1
        polys.append(Polynomial.make(ring, terms))
    return EndoSystem(ring, tuple(polys))


@pytest.mark.parametrize("field, shapes, t", [
    (QQ, [(2, 2), (2, 3), (2, 2, 2)], False),
    (gf_construct(7, 1), [(2, 2), (2, 3), (2, 2, 2)], False),
    (gf_construct(5, 2), [(2, 2), (2, 3)], True),
    (gf_construct(3, 1), [(3, 3)], False),  # 3 divides both degrees
    (gf_construct(5, 1), [(5, 2)], False),  # 5 divides d_1
    (gf_construct(2 ** 61 - 1, 2), [(2, 2), (2, 3)], True),
    (gf_construct(2 ** 89 - 1, 2), [(2, 2), (2, 3)], True),
], ids=["QQ", "GF(7)", "GF(25), t", "GF(3)", "GF(5)", "GF((2^61-1)^2), t",
        "GF((2^89-1)^2), t"])
def test_global_gram_is_the_inverse_residue_form(field, shapes, t):
    # With no zeros at infinity the Bezoutian's Gram is the inverse of the
    # global residue's (Scheja-Storch; Cattani-Dickenstein-Sturmfels), with
    # no unit J needed: also where p divides a degree.  The kernel ints of
    # GF(p^2) with t have two slots of 2b + 66 bits for a b-bit p: one
    # product of three reduced ints, never reduced in between, fits at
    # b = 61 but overflows a slot at b = 89.
    rng = random.Random(f"residue:{field}:{t}")
    checked = 0
    for shape in shapes:
        for _ in range(5):
            f = residue_oracle_system(rng, field, shape, t)
            expected = residue_gram_inverse(f)
            if expected is not None:
                assert [list(row) for row in global_a1_degree(f).gram] == \
                    expected
                checked += 1
    assert checked >= 3 * len(shapes)


@pytest.mark.parametrize("polys", [["x^2", "y^2"], ["x^3 - y^2", "y^3 - x^2"]],
                         ids=["squares", "cusps"])
def test_multiple_roots_gram_is_the_inverse_residue_form(polys):
    # The origin is a multiple root, where J is no unit in Q(f) and the
    # trace form says nothing; the residue still inverts the Gram.
    _, f = system(("x", "y"), polys, gf_construct(7, 1))
    expected = residue_gram_inverse(f)
    assert expected is not None and len(expected) == f.bezout_number
    assert [list(row) for row in global_a1_degree(f).gram] == expected


def staircase_oracle_system(rng, field, shape, kind):
    """A seeded system of the given degrees, its coefficients drawn from
    QQ's small fractions or from all of GF(q), t included.  "dense": a
    random form of degree d_i plus random lower terms, so over a small
    field the top forms may meet at infinity; "power": c * x_i^d_i plus
    random terms of lower degree, whose top forms meet only at 0;
    "multiple": (x_i - a_i)^d_i plus (x_j - a_j) times random terms of
    degree below d_i, for j < i, whose only zero a has multiplicity
    prod d_i; "infinity": as "dense", with every top form vanishing at a
    planted point (1, v) at infinity."""
    n = len(shape)
    ring = PolyRing(field, tuple("xyzw"[:n]))
    if field is QQ:
        def scalar():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    else:
        elements = list(field.elements())

        def scalar():
            return rng.choice(elements)

    def terms(d, low=0):
        return Polynomial.make(ring, {
            e: scalar() for e in itertools.product(range(d + 1), repeat=n)
            if low <= sum(e) <= d and rng.random() < 0.6})

    def form(d):  # a nonzero form of degree d
        f = terms(d, d)
        while f.total_degree() != d:
            f = terms(d, d)
        return f

    x = [ring.variable(i) for i in range(n)]
    if kind == "multiple":
        u = [v - scalar() for v in x]
        return EndoSystem(ring, tuple(
            u[i] ** d + sum((u[j] * terms(d - 1) for j in range(i)),
                            ring.zero())
            for i, d in enumerate(shape)))
    point = [field.one()] + [scalar() for _ in range(n - 1)]
    polys = []
    for i, d in enumerate(shape):
        if kind == "power":
            c = scalar()
            while not c:
                c = scalar()
            polys.append(c * x[i] ** d + terms(d - 1))
            continue
        top = form(d)
        while kind == "infinity":
            value = sum((c * prod((a ** k for a, k in zip(point, e)),
                                  start=field.one())
                         for e, c in top.terms.items()), field.zero())
            top = top - value * x[0] ** d
            if top.total_degree() == d:
                break
            top = form(d)
        polys.append(top + terms(d - 1))
    return EndoSystem(ring, tuple(polys))


@pytest.mark.parametrize("field, shapes", [
    (QQ, [(3,), (2, 2), (1, 3), (2, 3), (1, 2, 2)]),
    (gf_construct(3, 1), [(3,), (3, 2), (1, 3), (3, 3)]),  # 3 divides d_i
    (gf_construct(5, 1), [(5,), (5, 2), (1, 5), (2, 2)]),  # 5 divides d_1
    (gf_construct(7, 1), [(2, 2), (2, 3), (1, 2, 2)]),
    (gf_construct(3, 2), [(3, 2), (2, 2), (1, 3)]),  # GF(9), t
    (gf_construct(5, 2), [(5, 1), (2, 2), (2, 3)]),  # GF(25), t
], ids=["QQ", "GF(3)", "GF(5)", "GF(7)", "GF(9)", "GF(25)"])
def test_a_full_staircase_has_one_top_stair_and_it_is_the_last(field, shapes):
    # Macaulay: a grevlex staircase of prod d_i stairs is that of the top
    # forms' complete intersection, so exactly one stair has the degree
    # rho = sum (d_i - 1), and it is the last, which the residue path
    # asserts and does not test.  Top forms made to meet at infinity leave
    # fewer stairs.
    rng = random.Random(f"staircase:{field}")
    full = planted = 0
    for shape in shapes:
        for kind in ("dense", "power", "multiple", "infinity"):
            if kind == "infinity" and len(shape) == 1:
                continue
            for _ in range(4):
                f = staircase_oracle_system(rng, field, shape, kind)
                degree = [g.total_degree() for g in f.polys]
                assert degree == list(shape)
                try:
                    stairs = standard_monomials(
                        groebner_basis(Ideal(f.ring, f.polys)))
                except ValueError:  # a curve of zeros
                    assert kind in ("dense", "infinity")
                    continue
                if kind == "infinity":
                    planted += 1
                    assert len(stairs) < f.bezout_number
                if len(stairs) == f.bezout_number:
                    full += 1
                    rho = sum(degree) - len(degree)
                    steps = [m.total_degree() for m in stairs]
                    assert steps.count(rho) == 1
                    assert steps[-1] == max(steps) == rho
                else:
                    assert kind in ("dense", "infinity")
    assert full >= 8 * len(shapes) and planted >= 4


@pytest.mark.parametrize("field, shape, t", [
    (gf_construct(7, 1), (2, 3), False),
    (gf_construct(5, 2), (2, 3), True),
    (gf_construct(3, 1), (3, 3), False),
    (gf_construct(5, 1), (5, 2), False),
    (gf_construct(2 ** 89 - 1, 2), (2, 2), True),
    (gf_construct(7, 1), None, False),
], ids=["GF(7)", "GF(25), t", "GF(3)", "GF(5)", "GF((2^89-1)^2), t",
        "GF(7) cusps"])
def test_residue_path_hands_the_class_its_determinant(monkeypatch, field,
                                                      shape, t):
    # The residue Gauss-Jordan's pivots give det G' and so the Gram's
    # determinant c^size / det G': the class is built with no elimination,
    # classifies as a validated class of the same Gram does, and still
    # eliminates, once, when its pivots are read.
    eliminate, calls = forms._eliminate, []

    def counting(gram, F, track=False):
        calls.append(len(gram))
        return eliminate(gram, F, track)

    monkeypatch.setattr(forms, "_eliminate", counting)
    if shape is None:  # a multiple root at the origin
        systems = [system(("x", "y"), ["x^3 - y^2", "y^3 - x^2"], field)[1]]
    else:
        rng = random.Random(f"handover:{field}:{t}")
        systems = [residue_oracle_system(rng, field, shape, t)
                   for _ in range(4)]
    for f in systems:
        beta = global_a1_degree(f)
        assert calls == [] and beta.rank == f.bezout_number
        assert vars(beta)["_determinant"] == eliminate(beta.gram, field)[1]
        assert get_invariants(beta) == \
            get_invariants(make_gw_class(beta.gram, field))
        calls.clear()
        diag = beta.diagonal_entries()
        D, P = diagonalize(beta)
        assert calls == [beta.rank, beta.rank]  # the pivots, then P
        n = beta.rank
        assert [D.gram[i][i] for i in range(n)] == diag
        assert [[sum((P[k][i] * beta.gram[k][l] * P[l][j]
                      for k in range(n) for l in range(n)), field.zero())
                 for j in range(n)] for i in range(n)] == \
            [list(row) for row in D.gram]
        calls.clear()


def has_a_vanishing_leading_minor(gram) -> bool:
    """Whether Gaussian elimination of gram in its own order, with no row
    swap, meets a zero pivot before the last row."""
    m = [list(row) for row in gram]
    for k in range(len(m) - 1):
        if not m[k][k]:
            return True
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return False


def bezoutian_gram(f):
    """The Gram matrix read off NF(det B) modulo I_X + I_Y, the public
    bases moved into the doubled ring: no residue takes part."""
    n = f.ring.nvars
    gb = groebner_basis(Ideal(f.ring, f.polys))
    bez = bezoutian_matrix(f)
    moved = [g.map_to(bez.doubled_ring, list(range(k, k + n)))
             for k in (0, n) for g in gb.basis]
    index = {m.leading_monomial(): i
             for i, m in enumerate(standard_monomials(gb))}
    gram = [[QQ.zero()] * len(index) for _ in index]
    for e, c in bez.determinant(moved).terms.items():
        gram[index[e[:n]]][index[e[n:]]] = c
    return gram


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (1, 2, 2)],
                         ids=str)
def test_qq_residue_path_hands_the_class_its_elimination(monkeypatch, shape):
    # Over QQ the residue's reverse sweep gives B's own symmetric pivots
    # (Jacobi's complementary minors): every class the residue builds is
    # handed _eliminate's (pivots, det, L), runs no elimination, classifies
    # as a validated class of the same Gram does, and eliminates once more
    # only to track P for diagonalize.  Where B has a vanishing leading
    # minor, G' has a vanishing trailing one, the sweep stops, and the
    # Bezoutian's Gram is eliminated once.
    eliminate, calls = forms._eliminate, []
    det, dets = degrees.BezoutianMatrix.determinant, []

    def counting(gram, F, track=False):
        calls.append(len(gram))
        return eliminate(gram, F, track)

    def determinant(bez, modulo=None):
        dets.append(modulo)
        return det(bez, modulo)

    monkeypatch.setattr(forms, "_eliminate", counting)
    monkeypatch.setattr(degrees.BezoutianMatrix, "determinant", determinant)
    rng = random.Random(f"handover:QQ:{shape}")
    handed = 0
    for _ in range(6):
        f = residue_oracle_system(rng, QQ, shape, False)
        calls.clear()
        dets.clear()
        beta = global_a1_degree(f)
        if has_a_vanishing_leading_minor(beta.gram):
            assert calls == [beta.rank] and len(dets) == 1
            continue
        handed += 1
        assert calls == [] and dets == [] and beta.rank == f.bezout_number
        assert vars(beta)["_elimination"] == eliminate(beta.gram, QQ)[:3]
        assert get_invariants(beta) == \
            get_invariants(make_gw_class(beta.gram, QQ))
        calls.clear()
        diag = beta.diagonal_entries()
        D, P = diagonalize(beta)
        assert calls == [beta.rank]  # P only: the pivots were handed over
        n = beta.rank
        assert [D.gram[i][i] for i in range(n)] == diag
        assert [[sum(P[k][i] * beta.gram[k][l] * P[l][j]
                     for k in range(n) for l in range(n))
                 for j in range(n)] for i in range(n)] == \
            [list(row) for row in D.gram]
    assert handed >= 3


@pytest.mark.parametrize("polys", [
    # B's second leading minor vanishes, so G''s trailing 2 x 2 minor does:
    # the sweep stops at its second step
    ["x^2 - 1", "(x - y)^2 + 2"],
    # G' has a zero diagonal, so its last entry vanishes: the first step
    ["x^2 - 1", "y^2 - 2"],
], ids=["out of order", "no diagonal pivot"])
def test_qq_residue_fallbacks_eliminate_once(monkeypatch, polys):
    # Any vanishing trailing minor of G' sends the query to the Bezoutian,
    # whose Gram is eliminated once.
    eliminate, calls, dets = forms._eliminate, [], []
    det = degrees.BezoutianMatrix.determinant

    def counting(gram, F, track=False):
        calls.append(len(gram))
        return eliminate(gram, F, track)

    def determinant(bez, modulo=None):
        dets.append(modulo)
        return det(bez, modulo)

    _, f = system(("x", "y"), polys)
    monkeypatch.setattr(forms, "_eliminate", counting)
    monkeypatch.setattr(degrees.BezoutianMatrix, "determinant", determinant)
    beta = global_a1_degree(f)
    assert calls == [4]
    assert len(dets) == 1
    assert has_a_vanishing_leading_minor(beta.gram)
    monkeypatch.undo()
    assert [list(row) for row in beta.gram] == bezoutian_gram(f)
    assert get_invariants(beta) == \
        get_invariants(make_gw_class(beta.gram, QQ))


@pytest.mark.parametrize("shape, residue", [
    ((6,), True), ((7,), False),
    ((3, 4), True), ((2, 7), False),
    ((3, 3, 2), True), ((2, 2, 5), False),
], ids=str)
def test_qq_residue_rank_limit(monkeypatch, shape, residue):
    # Up to MAX_QQ_RESIDUE_RANK_PER_VARIABLE per variable the QQ Gram
    # comes from the residue form, and above it from the Bezoutian's one
    # determinant; either way it is the Gram read off the Bezoutian
    # independently, and the class's record is that Gram's.
    w = _workloads(monkeypatch)
    names = w._var_names(len(shape))
    polys = w.random_system(random.Random(f"limit:{shape}"), shape, top=3,
                            low=3)
    _, f = system(names, [w.to_string(p, names) for p in polys])
    assert (f.bezout_number <= len(shape) *
            degrees.MAX_QQ_RESIDUE_RANK_PER_VARIABLE) == residue
    eliminate, calls = forms._eliminate, []
    det, dets = degrees.BezoutianMatrix.determinant, []

    def counting(gram, F, track=False):
        calls.append(len(gram))
        return eliminate(gram, F, track)

    def determinant(bez, modulo=None):
        dets.append(modulo)
        return det(bez, modulo)

    monkeypatch.setattr(forms, "_eliminate", counting)
    monkeypatch.setattr(degrees.BezoutianMatrix, "determinant", determinant)
    beta = global_a1_degree(f)
    assert len(dets) == (0 if residue else 1)
    assert calls == ([] if residue else [beta.rank])
    monkeypatch.undo()
    expected = bezoutian_gram(f)
    assert [list(row) for row in beta.gram] == expected
    assert beta._elimination == forms._eliminate(expected, QQ)[:3]
    assert get_invariants(beta) == get_invariants(make_gw_class(expected, QQ))


@pytest.mark.parametrize("polys, rank", [
    (["x^2 - y^3", "y^2 - x^3"], 4),
    (["x - 2*y", "x^3 + y^4 - x*y^2"], 3),  # an affine-linear f_1
    (["x^5 + 2*x*y^2 - y^3", "y^4 - 3*x^3 + x*y"], 8),
])
def test_local_gram_reduces_the_entries_first(polys, rank):
    # NF(det B) = NF(det NF(B_ij)) modulo I_X + I_Y: the Gram matrix read
    # off the reduced determinant of the unreduced entries is the same.
    ring = PolyRing(QQ, ("x", "y"))
    f = EndoSystem(ring, tuple(ring.from_string(p) * c for p, c in
                               zip(polys, (Fraction(2, 3), Fraction(-5, 4)))))
    point = Ideal.of(ring, "x", "y")
    gb, _ = degrees._local_ideal(f, point)
    bez = bezoutian_matrix(f)
    dring = bez.doubled_ring
    gxy = [g.map_to(dring, m) for m in ([0, 1], [2, 3]) for g in gb.basis]
    index = {m.leading_monomial(): i
             for i, m in enumerate(standard_monomials(gb))}
    expected = [[0] * rank for _ in range(rank)]
    for e, c in normal_form(bez.determinant(), gxy).terms.items():
        expected[index[e[:2]]][index[e[2:]]] = c
    assert [list(row) for row in local_a1_degree(f, point).gram] == expected


def test_local_gram_at_the_quartic_point_is_the_inverse_trace_form():
    import sympy
    ring, f = system(("x",), [QUARTIC])
    point = Ideal.of(ring, "x^2 + x + 1")
    beta = local_a1_degree(f, point)
    basis = [m.leading_monomial()
             for m in local_algebra_basis(f, point).basis]
    x = sympy.Symbol("x")
    gens = list(sympy.groebner([sympy.sympify(QUARTIC.replace("^", "**")),
                                (x ** 2 + x + 1) ** 2], x,
                               order="grevlex").exprs)
    expected = trace_form_inverse(QQ, ("x",), gens, [QUARTIC], basis)
    assert beta.rank == 2 and [list(row) for row in beta.gram] == expected


# -- refused inputs ----------------------------------------------------------


def _foreign_point(field=QQ):
    _, f = system(("x", "y"), ["x", "y"], field)
    return f, Ideal.of(PolyRing(field, ("x", "z")), "x", "z")


REFUSED = [
    (lambda: EndoSystem(PolyRing(QQ, ("x",)),
                        (PolyRing(QQ, ("y",)).from_string("y"),)),
     ValueError, "all polynomials must live in the system's ring"),
    (lambda: EndoSystem(PolyRing(QQ, ("x",)), ("x",)),
     ValueError, "all polynomials must live in the system's ring"),
    (lambda: local_a1_degree(*_foreign_point()), ValueError,
     "polynomial ring mismatch"),
    (lambda: local_algebra_basis(*_foreign_point()), ValueError,
     "polynomial ring mismatch"),
    # a GF(p) system and point over GF(25) are compared before they descend
    (lambda: local_a1_degree(*_foreign_point(gf_construct(5, 2))),
     ValueError, "polynomial ring mismatch"),
]


@pytest.mark.parametrize("call, exc, message", REFUSED,
                         ids=[message for *_, message in REFUSED])
def test_refused_degree_inputs(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("field, point", [(QQ, "1"), (QQ, "x + 1 - x"),
                                          (gf_construct(5, 1), "5*x + 1")],
                         ids=str)
def test_a_unit_ideal_point_is_refused(field, point):
    ring, f = system(("x", "y"), ["x^2", "y"], field)
    for call in (local_a1_degree, local_algebra_basis):
        with pytest.raises(ValueError) as info:
            call(f, Ideal.of(ring, point))
        assert str(info.value) == "the point's ideal is the unit ideal"
