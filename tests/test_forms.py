from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import prod

import pytest

from conftest import (HILBERT_CORPUS, HILBERT_PRIMES,
                      count_fraction_arithmetic, hilbert_oracle,
                      real_hilbert_symbol)

from a1degrees import cli, fields, forms, witt
from a1degrees.degrees import EndoSystem, global_a1_degree
from a1degrees.fields import (CC, QQ, RR, FFElement, gf_construct, is_square,
                              odd_prime_support, squarefree_part)
from a1degrees.forms import (add_gw, base_change, diagonalize,
                             get_discriminant, get_invariants, get_rank,
                             get_signature, hasse_witt_invariant,
                             hilbert_symbol,
                             is_isomorphic_form, make_diagonal_form,
                             make_gw_class, make_hyperbolic_form,
                             make_pfister_form, multiply_gw)
from a1degrees.poly import PolyRing, determinant


def diag(entries, field=QQ):
    return make_diagonal_form(field, entries)


# -- construction and validation --------------------------------------------


def test_make_gw_class_validates():
    beta = make_gw_class([[1, 3], [3, 7]], QQ)
    assert beta.rank == 2
    with pytest.raises(ValueError):
        make_gw_class([[1, 2], [3, 4]], QQ)
    with pytest.raises(ValueError, match="degenerate form"):
        make_gw_class([[1, 1], [1, 1]], QQ)
    with pytest.raises(ValueError):
        make_gw_class([[1, 2, 3], [2, 1, 1]], QQ)


@pytest.mark.parametrize("field, entry", [
    (QQ, lambda: Fraction(1, 2)),
    (gf_construct(3, 2), lambda: gf_construct(3, 2).coerce((0, 1))),  # t
], ids=["QQ", "GF(9)"])
@pytest.mark.parametrize("row_type", [list, tuple])
def test_one_asymmetric_pair_is_refused(field, entry, row_type):
    # I + c(J - I) with each mirrored pair two equal objects, not one:
    # symmetric, and nondegenerate (det (1 - c)^3 (1 + 3c)).  Changing one
    # entry of a pair, above or below the diagonal, makes it asymmetric.
    n = 4

    def gram():
        return [[field.one() if i == j else entry() for j in range(n)]
                for i in range(n)]

    rows = gram()
    assert rows[0][n - 1] == rows[n - 1][0]
    assert rows[0][n - 1] is not rows[n - 1][0]
    assert forms._checked(field, list(map(row_type, rows))).rank == n
    for i, j in [(0, n - 1), (n - 2, n - 1), (1, 0)]:
        rows = gram()
        rows[i][j] = rows[i][j] + field.one()
        with pytest.raises(ValueError, match="must be symmetric"):
            forms._checked(field, list(map(row_type, rows)))


def test_make_diagonal_form_examples():
    F13 = gf_construct(13, 1)
    beta = make_diagonal_form(F13, (2, 6))
    assert beta.rank == 2
    assert beta.gram[0][0] == F13.coerce(2)
    with pytest.raises(ValueError):
        make_diagonal_form(QQ, (1, 0))


def test_make_hyperbolic_form():
    h = make_hyperbolic_form(QQ, 2)
    assert [h.gram[i][i] for i in range(2)] == [Fraction(1), Fraction(-1)]
    assert make_hyperbolic_form(QQ, 6).rank == 6
    with pytest.raises(ValueError):
        make_hyperbolic_form(QQ, 3)
    with pytest.raises(ValueError):
        make_hyperbolic_form(QQ, 0)


def test_make_pfister_form_convention():
    # <<a, b>> = <1,-a> tensor <1,-b> = <1, -a, -b, ab>
    beta = make_pfister_form(QQ, (2, 3))
    expected = diag([1, -2, -3, 6])
    assert is_isomorphic_form(beta, expected)
    assert beta.rank == 4
    assert make_pfister_form(QQ, (5,)).rank == 2


def pfister_oracle(field, slots):
    """The Kronecker product of the factors <1, -a_i>, one multiply_gw per
    slot: the Pfister form as the tensor product it is defined as."""
    beta = None
    for a in slots:
        factor = make_diagonal_form(field, [1, -field.coerce(a)])
        beta = factor if beta is None else multiply_gw(beta, factor)
    return beta


@pytest.mark.parametrize("field", [QQ, RR, gf_construct(7, 1),
                                   gf_construct(3, 2), gf_construct(5, 2)],
                         ids=str)
def test_pfister_form_is_the_tensor_product_of_its_factors(field):
    # 1-8 seeded slots: the diagonal built from the slots' products is the
    # Gram matrix of the Kronecker product, entry for entry and in order,
    # with slots outside GF(p) (t-valued) over GF(9) and GF(25).
    rng = random.Random(f"pfister:{field}")
    if field.kind == "GF":
        elements = [a for a in field.elements() if a]
        assert field.degree == 1 or any(a.value >= field.char
                                        for a in elements)
    for n in range(1, 9):
        for _ in range(3 if n < 6 else 1):
            if field.kind == "GF":
                slots = [rng.choice(elements) for _ in range(n)]
            else:
                slots = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                                  rng.randint(1, 5)) for _ in range(n)]
            beta = make_pfister_form(field, slots)
            assert beta == pfister_oracle(field, slots)
            assert beta.rank == 2 ** n
            assert all(type(c) is type(field.one()) for row in beta.gram
                       for c in row)


def test_made_form_ranks_are_bounded(monkeypatch):
    assert make_hyperbolic_form(QQ, forms.MAX_MADE_RANK).rank == \
        forms.MAX_MADE_RANK

    def forbidden(*args):
        raise AssertionError("an oversized form must not be built")

    monkeypatch.setattr(forms, "make_diagonal_form", forbidden)
    with pytest.raises(ValueError, match="exceeds"):
        make_hyperbolic_form(QQ, forms.MAX_MADE_RANK + 2)
    with pytest.raises(ValueError, match="exceeds"):
        make_hyperbolic_form(QQ, 10 ** 9)
    with pytest.raises(ValueError, match="30-fold Pfister form"):
        make_pfister_form(QQ, range(2, 32))


def test_add_and_multiply():
    a, b = diag([1]), diag([-1])
    s = add_gw(a, b)
    assert [s.gram[i][i] for i in range(2)] == [Fraction(1), Fraction(-1)]
    p = multiply_gw(diag([3]), diag([5]))
    assert p.gram[0][0] == Fraction(15)
    with pytest.raises(ValueError):
        add_gw(diag([1]), diag([1], field=RR))


# -- diagonalization ---------------------------------------------------------


def test_diagonalize_fixture():
    beta = make_gw_class([[1, 3], [3, 7]], QQ)
    d, p = diagonalize(beta)
    assert [d.gram[i][i] for i in range(2)] == [Fraction(1), Fraction(-2)]


def test_diagonalize_a_rank_zero_class():
    # The anisotropic part of a hyperbolic form has rank 0: it is its own
    # diagonal, with an empty congruence witness.
    part = witt.anisotropic_part(make_hyperbolic_form(QQ, 2))
    assert part.rank == 0
    assert diagonalize(part) == (part, ())


def test_diagonalize_reuses_the_square_classes(monkeypatch):
    calls = []
    original = fields.factorize

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(fields, "factorize", counting)
    beta = make_gw_class([[2, 3, 1], [3, 7, 5], [1, 5, 11]], QQ)
    entries = beta.diagonal_entries()
    assert calls == [2, 10, 140]
    d, _ = diagonalize(beta)
    assert [d.gram[i][i] for i in range(3)] == entries
    assert calls == [2, 10, 140]


def test_diagonalize_zero_diagonal():
    beta = make_gw_class([[0, 1], [1, 0]], QQ)
    d, p = diagonalize(beta)
    assert sorted(d.gram[i][i] for i in range(2)) == [Fraction(-1), Fraction(1)]


def congruence_holds(beta):
    d, p = diagonalize(beta)
    n = beta.rank
    field = beta.field
    got = [[sum(p[k][i] * beta.gram[k][l] * p[l][j]
                for k in range(n) for l in range(n))
            for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            expect = d.gram[i][j] if field.kind != "QQ" else d.gram[i][j]
            if got[i][j] != expect:
                return False
    return True


def test_diagonalize_congruence_witness_random_qq():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        while True:
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = Fraction(rng.randint(-5, 5))
            try:
                beta = make_gw_class(m, QQ)
                break
            except ValueError:
                continue
        assert congruence_holds(beta)
        d, _ = diagonalize(beta)
        # over QQ the entries are normalized squarefree integers
        for i in range(d.rank):
            e = d.gram[i][i]
            assert e.denominator == 1
            from a1degrees.fields import squarefree_part
            assert squarefree_part(e) == e


def test_diagonalize_congruence_witness_gf13():
    F13 = gf_construct(13, 1)
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 4)
        while True:
            m = [[F13.coerce(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = F13.coerce(rng.randint(0, 12))
            try:
                beta = make_gw_class(m, F13)
                break
            except ValueError:
                continue
        assert congruence_holds(beta)


F7 = gf_construct(7, 1)


@pytest.mark.parametrize("make", [
    lambda: add_gw(diag([1, 2]), make_gw_class([[0, 2], [2, 3]], QQ)),
    lambda: multiply_gw(diag([1, -3]), make_gw_class([[2, 1], [1, 5]], QQ)),
    lambda: make_diagonal_form(QQ, [Fraction(1, 2), 12, -18]),
    lambda: add_gw(diag([3, 5], F7), make_gw_class([[0, 1], [1, 0]], F7)),
    # a GF(q) degree from the residue form, handed only its determinant
    lambda: global_a1_degree(EndoSystem.of(PolyRing(F7, ("x", "y")),
                                           "x^2 - 3", "y^3 - y - 1")),
], ids=["add", "multiply", "diagonal", "add-gf7", "residue-gf7"])
def test_diagonalize_eliminates_once(monkeypatch, request, make):
    # A class with no elimination of its own takes the tracked one, whose
    # pivots, determinant and lcm are the untracked elimination's.  A
    # diagonal class holds that elimination from construction, and keeps it.
    beta = make()
    if request.node.callspec.id == "diagonal":
        assert vars(beta)["_elimination"] == \
            forms._eliminate(beta.gram, beta.field)[:3]
    else:
        assert "_elimination" not in vars(beta)
    eliminate, calls = forms._eliminate, []

    def counting(gram, field, track=False):
        calls.append(track)
        return eliminate(gram, field, track)

    monkeypatch.setattr(forms, "_eliminate", counting)
    assert congruence_holds(beta)
    assert calls == [True]
    assert vars(beta)["_elimination"] == eliminate(beta.gram, beta.field)[:3]
    assert get_invariants(beta) == \
        get_invariants(make_gw_class(beta.gram, beta.field))
    assert calls == [True, False]  # only make_gw_class's own


GF25 = gf_construct(5, 2)


@pytest.mark.parametrize("field, entries", [
    (QQ, [Fraction(1, 2), 12, Fraction(-18, 5), Fraction(7, 8)]),
    (RR, [Fraction(-3, 4), 2, Fraction(5, 3)]),
    (F7, [3, 5, 6]),
    (GF25, [GF25.coerce((0, 1)), GF25.coerce((1, 1)), 2, GF25.coerce((3, 4))]),
], ids=["QQ", "RR", "GF(7)", "GF(25)"])
def test_diagonal_class_is_handed_its_elimination(monkeypatch, field,
                                                  entries):
    # A diagonal class, and so a hyperbolic or Pfister form, is built with
    # the elimination `_eliminate` would return for it, and is classified
    # and decomposed (its Witt part and witness too) without one.
    eliminate = forms._eliminate

    def forbidden(*args):
        raise AssertionError("a diagonal class must not be eliminated")

    with monkeypatch.context() as patch:
        patch.setattr(forms, "_eliminate", forbidden)
        made = [make_diagonal_form(field, entries),
                make_hyperbolic_form(field, 4),
                make_pfister_form(field, entries[:2])]
        records = [get_invariants(beta) for beta in made]
        for beta in made:
            witt.sum_decomposition(beta)
    for beta, record in zip(made, records):
        assert vars(beta)["_elimination"] == \
            eliminate(beta.gram, beta.field)[:3]
        assert record == get_invariants(make_gw_class(beta.gram, field))
        if field.kind in ("QQ", "RR"):
            assert get_signature(beta) == \
                sum(1 if beta.gram[i][i] > 0 else -1 for i in range(beta.rank))


def hasse_witt_entry(rng):
    """A seeded rational: p^0-p^3 factors of 2, 3 and 5, an odd part of any
    class mod 8, a sign, and a denominator with its own factors of them."""
    num = rng.choice([1, 3, 5, 7]) + 8 * rng.randrange(3)
    for p in (2, 3, 5):
        num *= p ** rng.choice([0, 0, 1, 2, 3])
    den = rng.choice([1, 1, 1, 2, 3, 4, 5, 8, 9, 25, 7])
    return Fraction(rng.choice([-1, 1]) * num, den)


def test_hasse_witt_record_matches_the_pairwise_symbols():
    # The record, one pass per prime over the pivots, against the
    # definition: prod_{i<j} (a_i, a_j)_p over the pivots of one
    # diagonalization, at 2 and every key, and at 3 and 5, which the
    # entries carry whether or not they are keys.  Each pair's symbol is
    # itself checked against the primitive-solution search at 2, 3 and 5 on
    # squarefree parts, so both the fold and `_hilbert` on valuations above
    # 1 are tested.
    oracle = functools.lru_cache(maxsize=None)(hilbert_oracle)
    rng = random.Random("hasse-witt-fold")
    seen = set()
    for shape in ["diagonal", "dense"] * 40:
        n = rng.randint(1, 5)
        entries = [hasse_witt_entry(rng) for _ in range(n)]
        if shape == "diagonal":
            beta = diag(entries)
        else:  # P^T diag(entries) P with P unit lower triangular: the
            # determinant keeps the entries' primes, the pivots do not
            P = [[int(i == j) or (rng.randint(-3, 3) if i > j else 0)
                  for j in range(n)] for i in range(n)]
            beta = make_gw_class(
                [[sum(P[k][i] * entries[k] * P[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)], QQ)
        pivots, det, _, _ = forms._eliminate(beta.gram, QQ)
        ints = [fields._class_integer(a) for a in pivots]
        record = get_invariants(beta)
        assert record.discriminant == squarefree_part(det)
        for p in sorted({2, 3, 5, *record.hasse_witt}):
            expected = 1
            for i, a in enumerate(ints):
                for b in ints[i + 1:]:
                    symbol = hilbert_symbol(a, b, p)
                    assert symbol == forms._symbol(
                        *fields._split_prime(a, p),
                        *fields._split_prime(b, p), p)
                    if p <= 5:
                        assert symbol == oracle(squarefree_part(a),
                                                squarefree_part(b), p)
                        seen.add((p, fields._split_prime(a, p)[0] > 1))
                    expected *= symbol
            assert hasse_witt_invariant(beta, p) == expected, (beta.gram, p)
            seen.add((p, expected))
        seen.update(("mod 8", a % 8) for a in ints if a % 2)
    assert {(p, t) for p in (2, 3, 5) for t in (1, -1)} <= seen
    assert {(p, True) for p in (2, 3, 5)} <= seen
    assert {("mod 8", r) for r in (1, 3, 5, 7)} <= seen


def random_symmetric(rng, n, field, diagonal):
    """A seeded symmetric matrix: diagonal "dense", "some-zero" or "zero"."""
    def draw():
        if field.kind == "GF":
            return field.coerce(tuple(rng.randrange(field.char)
                                      for _ in range(field.degree)))
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))

    m = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw() if rng.random() < 0.7 else field.zero()
    for i in range(n):
        if diagonal == "zero" or (diagonal == "some-zero" and rng.random() < 0.5):
            m[i][i] = field.zero()
    return m


@pytest.mark.parametrize("field", [QQ, gf_construct(13, 1), gf_construct(5, 2)],
                         ids=str)
def test_elimination_oracle(field):
    # The reference determinant is poly.determinant, which shares no code with
    # the symmetric elimination under test.
    rng = random.Random(f"elimination:{field}")
    seen = {"degenerate": 0, "swap": 0, "pair": 0}
    for k in range(120):
        diagonal = ("dense", "some-zero", "zero")[k % 3]
        m = random_symmetric(rng, rng.randint(1, 6), field, diagonal)
        det = determinant(m, field)
        if not det:
            seen["degenerate"] += 1
            with pytest.raises(ValueError, match="degenerate form"):
                make_gw_class(m, field)
            continue
        beta = make_gw_class(m, field)
        d, _ = diagonalize(beta)
        assert beta.diagonal_entries() == [d.gram[i][i] for i in range(d.rank)]
        assert congruence_holds(beta)
        pivots = prod(beta._pivots, start=field.one())
        if field.kind == "GF":
            assert is_square(pivots, field) == is_square(det, field)
        else:
            assert squarefree_part(pivots) == squarefree_part(det)
        if not m[0][0]:
            seen["pair" if not any(m[i][i] for i in range(len(m))) else "swap"] += 1
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("field", [QQ, gf_construct(13, 1), gf_construct(5, 2)],
                         ids=str)
def test_elimination_returns_the_determinant(field):
    rng = random.Random(f"determinant:{field}")
    for k in range(60):
        diagonal = ("dense", "some-zero", "zero")[k % 3]
        m = random_symmetric(rng, rng.randint(1, 6), field, diagonal)
        det = determinant(m, field)
        if det:
            assert make_gw_class(m, field)._elimination[1] == det


@pytest.mark.parametrize("diagonal", ["dense", "some-zero", "zero"])
def test_one_record_whatever_ran_first(diagonal):
    # The record read on a fresh class and the one read after the squarefree
    # diagonal was computed come from the same factorization.
    rng = random.Random(f"one record:{diagonal}")
    compared = 0
    for _ in range(40):
        m = random_symmetric(rng, rng.randint(1, 6), QQ, diagonal)
        if not determinant(m, QQ):
            continue
        fresh, diagonalized = make_gw_class(m, QQ), make_gw_class(m, QQ)
        diagonalized.diagonal_entries()
        assert fresh._invariants == diagonalized._invariants, m
        compared += 1
    assert compared >= 20


# A zero-diagonal Gram: its elimination re-bases the plane on the entry 6.
HIDDEN_PRIME_PLANE = [[0, 6, 2, Fraction(2, 5)], [6, 0, Fraction(7, 2), 1],
                      [2, Fraction(7, 2), 0, 15], [Fraction(2, 5), 1, 15, 0]]


def test_record_reads_primes_a_hyperbolic_plane_hides():
    # Re-basing the plane on the entry 6 divides the pivots' product by 36,
    # so 3 divides the determinant but not that product.  Hasse-Witt at 3
    # is -1 all the same.
    gram = HIDDEN_PRIME_PLANE
    beta = make_gw_class(gram, QQ)
    assert prod(beta._pivots).numerator % 3 != 0
    assert beta._elimination[1] == determinant(gram, QQ)
    entries = make_gw_class(gram, QQ).diagonal_entries()
    assert _pairwise_hasse_witt(entries, 3) == -1
    assert get_invariants(beta).hasse_witt[3] == -1


def test_record_skips_a_prime_only_a_pivot_carries():
    # L = 1 and det = 2, so the record is read at 2 alone, though the
    # pivots 3 and 2/3 are not 3-adic units: L^2 * gram is unimodular at 3.
    beta = make_gw_class([[3, 1], [1, 1]], QQ)
    assert beta._pivots == (3, Fraction(2, 3))
    inv = get_invariants(beta)
    assert inv.hasse_witt == {2: 1} and inv.discriminant == 2
    assert hasse_witt_invariant(beta, 3) == 1
    assert beta.diagonal_entries() == [3, 6]
    assert is_isomorphic_form(beta, diag([1, 2]))


# The system random_system(Random(0), (3, 3), top=3, low=3) of
# perfbench/workloads.py: its Gram has rank 9, 28 non-integer entries and
# four zero diagonal entries.
RANK9_SYSTEM = ("x^3 - 3*x^2*y + 3*x*y^2 - y^3 - 3*x^2 + 2*x*y + 4*x - y",
                "-x^3 - 3*x^2*y + 3*x*y^2 - y^3 + 5*x^2 - 7*x*y + 2*y^2 + x"
                " - 3*y + 1")


@pytest.mark.parametrize("gram", [
    lambda: global_a1_degree(EndoSystem.of(PolyRing(QQ, ("x", "y")),
                                           *RANK9_SYSTEM)).gram,
    lambda: HIDDEN_PRIME_PLANE,
], ids=["degree", "plane"])
def test_rational_elimination_does_no_fraction_arithmetic(monkeypatch, gram):
    # The Gram enters as integers over one denominator: the only Fractions
    # built are the pivots and the determinant.
    gram = [[QQ.coerce(c) for c in row] for row in gram()]
    calls = count_fraction_arithmetic(monkeypatch)
    made = []
    original = Fraction.__new__

    def constructing(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", constructing)
    beta = make_gw_class(gram, QQ)
    assert calls == []
    assert len(made) == beta.rank + 1
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert calls == ["__add__"]  # the counters do see Fraction arithmetic
    monkeypatch.undo()
    assert beta._elimination[1] == determinant(gram, QQ)


@pytest.mark.parametrize("field", [QQ, gf_construct(13, 1), gf_construct(5, 2)],
                         ids=str)
def test_pivots_are_ratios_of_leading_minors(field):
    # With every leading principal minor Delta_k nonzero no step swaps, and
    # pivot k is Delta_k / Delta_{k-1}.  Ranks 7-16, past the other oracles.
    rng = random.Random("leading minors" if field == QQ else
                        f"leading minors:{field}")
    units = [a for a in field.elements() if a] if field.kind == "GF" else None

    def draw():
        if units:
            return rng.choice(units)
        return Fraction(rng.choice([c for c in range(-9, 10) if c]),
                        rng.choice([1, 2, 3, 4, 5, 7, 9]))

    rank = 7
    while rank <= 16:
        m = [[field.zero()] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                if i == j or rng.random() < 0.7:
                    m[i][j] = m[j][i] = draw()
        minors = [determinant([row[:k] for row in m[:k]], field)
                  for k in range(1, rank + 1)]
        if not all(minors):
            continue
        beta = make_gw_class(m, field)
        assert beta._pivots == tuple(
            b / a for a, b in zip([field.one()] + minors, minors))
        assert beta._elimination[1] == minors[-1]
        rank += 1


@pytest.mark.parametrize("field", [QQ, gf_construct(13, 1), gf_construct(5, 2)],
                         ids=str)
def test_zero_diagonal_elimination_at_rank_ten(field):
    # Every step that meets a zero trailing diagonal re-bases a plane with
    # entries outside it, so the block moves to a new denominator.
    rng = random.Random("zero diagonal rank 10" if field == QQ else
                        f"zero diagonal rank 10:{field}")
    while True:
        m = random_symmetric(rng, 10, field, "zero")
        det = determinant(m, field)
        if det:
            break
    beta = make_gw_class(m, field)
    assert beta._elimination[1] == det
    assert congruence_holds(beta)


@pytest.mark.parametrize("field, gram, pivots, det, cols", [
    # Planes with no entries outside them: alone, and after a swap.
    (QQ, [[0, 1], [1, 0]], [1, -1], -1, [["1/2", 1], ["1/2", -1]]),
    (QQ, [[0, 2, 0], [2, 0, 0], [0, 0, 3]], [3, 1, -1], -12,
     [[0, 0, 1], [1, "1/4", 0], [-1, "1/4", 0]]),
    (gf_construct(3, 2), [[0, 1], [1, 0]], [1, 2], 2,
     [[2, 1], [2, 2]]),
    # Planes with entries outside them.
    (QQ, [[0, 2, 1], [2, 0, 3], [1, 3, 0]], [1, -1, -3], 12,
     [["1/4", 1, 0], ["1/4", -1, 0], ["-3/2", "-1/2", 1]]),
    (gf_construct(3, 2), [[0, 2, 1], [2, 0, 1], [1, 1, 0]], [1, 2, 2], 1,
     [[1, 1, 0], [1, 2, 0], [1, 1, 1]]),
], ids=["QQ H", "QQ <3> + H", "GF(9) H", "QQ plane and more",
        "GF(9) plane and more"])
def test_a_hyperbolic_plane_is_eliminated_exactly(field, gram, pivots, det,
                                                  cols):
    # Every plane moves the trailing block to the denominator 2g * D and
    # divides out the content, as a pivot does; the pivots, det and the
    # columns of P are the field's own values, and P^T * gram * P is the
    # diagonal of the pivots.
    lift = Fraction if field is QQ else field.coerce
    m = [[lift(c) for c in row] for row in gram]
    got = forms._eliminate(m, field, track=True)
    assert got == (tuple(map(lift, pivots)), lift(det), 1,
                   [[lift(a) for a in col] for col in cols])
    n, zero = len(m), field.zero()
    assert [[sum((a * m[r][s] * b for r, a in enumerate(ca)
                  for s, b in enumerate(cb)), zero)
             for cb in got[3]] for ca in got[3]] == \
        [[got[0][i] if i == j else zero for j in range(n)] for i in range(n)]
    assert got[1] == determinant(m, field)


def field_elimination(gram, field, track=True):
    """`forms._eliminate`'s outcome computed on field elements: the same
    pivot, swap and plane choices, made on the trailing Schur complement
    itself, which is divided by each pivot as it goes."""
    n = len(gram)
    S = [list(row) for row in gram]
    one, zero = field.one(), field.zero()
    cols = [[one if r == c else zero for r in range(n)] for c in range(n)]
    pivots, det = [], one
    for i in range(n):
        if not S[i][i]:
            j = next((j for j in range(i + 1, n) if S[j][j]), None)
            if j is not None:
                S[i], S[j] = S[j], S[i]
                for row in S:
                    row[i], row[j] = row[j], row[i]
                cols[i], cols[j] = cols[j], cols[i]
            else:
                j = next((j for j in range(i + 1, n) if S[i][j]), None)
                if j is None:
                    raise ValueError("degenerate form")
                # e_i <- alpha e_i + e_j, e_j <- alpha e_i - e_j, alpha
                # = 1/2g: the plane <1, -1>, of determinant -1/g^2.
                g = S[i][j]
                det = det * g * g
                alpha = (2 * g).inverse()
                for rows in (S, cols):
                    rows[i], rows[j] = (
                        [alpha * a + b for a, b in zip(rows[i], rows[j])],
                        [alpha * a - b for a, b in zip(rows[i], rows[j])])
                for row in S:
                    row[i], row[j] = (alpha * row[i] + row[j],
                                      alpha * row[i] - row[j])
        p = S[i][i]
        det = det * p
        pivots.append(p)
        for j in range(i + 1, n):
            f = S[i][j] / p
            if f:
                for k in range(i + 1, n):
                    S[j][k] = S[j][k] - f * S[i][k]
                cols[j] = [a - f * b for a, b in zip(cols[j], cols[i])]
    return tuple(pivots), det, 1, cols if track else None


@pytest.mark.parametrize("field", [gf_construct(7, 1), gf_construct(5, 2),
                                   gf_construct(3, 3)], ids=str)
def test_residue_elimination_is_the_field_elimination(field):
    # A Gram over GF(q) is eliminated on its packed kernel ints, entries in
    # GF(p) or not.  Pivots, det and the tracked columns are the field
    # elements that the same elimination on field elements gives, through
    # swaps and planes, and det is the determinant.
    rng = random.Random(f"residue elimination:{field}")
    prime = gf_construct(field.char, 1)
    seen = {"degenerate": 0, "swap": 0, "pair": 0}
    for k in range(90):
        diagonal = ("dense", "some-zero", "zero")[k % 3]
        source = prime if k % 2 else field
        m = [[field.coerce(c) for c in row] for row in
             random_symmetric(rng, rng.randint(1, 7), source, diagonal)]
        outcomes = []
        for eliminate in (forms._eliminate, field_elimination):
            try:
                outcomes.append(eliminate(m, field, track=True))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], str):
            assert outcomes[0] == "degenerate form"
            seen["degenerate"] += 1
            continue
        pivots, det, _, cols = outcomes[0]
        assert all(type(c) is FFElement and c.field == field
                   for c in (*pivots, det, *(a for col in cols for a in col)))
        assert det == determinant(m, field)
        if not m[0][0]:
            seen["pair" if not any(m[i][i] for i in range(len(m)))
                 else "swap"] += 1
    assert min(seen.values()) >= 5, seen


def test_a_class_outside_the_prime_field_keeps_field_elements():
    # A GF(25) class read back from JSON, with a t entry or with entries in
    # GF(5), is eliminated on packed ints; its pivots leave as elements.
    field = {"name": "GF(25)"}
    beta = cli.gwclass_from_json({"field": field,
                                  "gram": [["t", "1"], ["1", "0"]]})
    t = beta.field.coerce((0, 1))
    assert beta._pivots == (t, -t.inverse())
    alpha = cli.gwclass_from_json({"field": field,
                                   "gram": [["2", "1"], ["1", "0"]]})
    assert alpha._pivots == (alpha.field.coerce(2), alpha.field.coerce(-3))
    assert all(type(c) is FFElement and c.field == alpha.field
               for c in (*beta._pivots, *alpha._pivots))


# -- invariants --------------------------------------------------------------


def test_signature_fixture():
    gamma = make_gw_class([[3, 0, 0], [0, -4, 0], [0, 0, 7]], RR)
    assert get_signature(gamma) == 1


def test_signature_undefined_over_cc_and_gf():
    with pytest.raises(ValueError, match="signature undefined"):
        get_signature(diag([1, 1], field=CC))
    with pytest.raises(ValueError, match="signature undefined"):
        get_signature(diag([1, 1], field=gf_construct(13, 1)))


def test_rank_and_discriminant():
    beta = make_gw_class([[1, 3], [3, 7]], QQ)
    assert get_rank(beta) == 2
    assert get_discriminant(beta) == -2
    assert get_rank(make_hyperbolic_form(QQ, 2)) == 2
    assert get_discriminant(diag([1, 1], field=CC)) == Fraction(1)
    assert get_discriminant(diag([-3], field=RR)) == Fraction(-1)


def test_discriminant_over_gf_normalizes_to_canonical_representative():
    F13 = gf_construct(13, 1)
    assert get_discriminant(diag([3], field=F13)) == F13.one()
    d = get_discriminant(diag([2], field=F13))
    assert d == F13.coerce(2)  # 2 is the smallest nonsquare mod 13


# -- Hilbert symbols ---------------------------------------------------------


def test_hilbert_symbol_examples():
    for b in (2, -7, 15):
        for p in (2, 3, 5):
            assert hilbert_symbol(1, b, p) == 1
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(-1, -1, 2) == -1


def test_hilbert_symbol_matches_primitive_solution_oracle():
    for p in HILBERT_PRIMES:
        for a in HILBERT_CORPUS:
            for b in HILBERT_CORPUS:
                assert hilbert_symbol(a, b, p) == hilbert_oracle(a, b, p), \
                    (a, b, p)


def test_hilbert_symbol_of_rationals_reads_their_square_classes():
    # s * t^2 / u^2 lies in the class of the squarefree s; u and t range over
    # multiples of p too, so valuations and unit residues move off s's
    oracle = functools.lru_cache(maxsize=None)(hilbert_oracle)
    rng = random.Random(5)
    for p in (2, 3, 5, 7, 11):
        scales = [1, 2, 3, 5, 7, p, p * p, 6 * p, 35 * p ** 3]
        for _ in range(60):
            s, s2 = rng.choice(HILBERT_CORPUS), rng.choice(HILBERT_CORPUS)
            a = Fraction(s * rng.choice(scales) ** 2, rng.choice(scales) ** 2)
            b = Fraction(s2 * rng.choice(scales) ** 2, rng.choice(scales) ** 2)
            assert hilbert_symbol(a, b, p) == oracle(s, s2, p), (a, b, p)
        assert hilbert_symbol(Fraction(3, p * p), Fraction(p, 1), p) == \
            oracle(3, p, p)
    # A string is read as the rational it names.
    assert hilbert_symbol("1/2", 3, 5) == hilbert_symbol(Fraction(1, 2), 3, 5)
    assert hilbert_symbol("1/2", 5, 5) == -1


def test_hilbert_symbol_checks_its_prime():
    with pytest.raises(ValueError, match="not prime"):
        hilbert_symbol(2, 3, 9)
    with pytest.raises(ValueError, match="not prime"):
        hilbert_symbol(2, 3, 1)


CHECKED_PRIME_CALLS = {
    "padic_valuation": lambda p: fields.padic_valuation(Fraction(3, 5), p),
    "legendre_symbol": lambda p: fields.legendre_symbol(3, p),
    "is_padic_square": lambda p: fields.is_padic_square(3, p),
    "hilbert_symbol": lambda p: hilbert_symbol(3, 5, p),
    "hasse_witt_invariant": lambda p: hasse_witt_invariant(diag([1, 3]), p),
    "anisotropic_dimension_qp":
        lambda p: witt.anisotropic_dimension_qp(diag([1, 3]), p),
}


@pytest.mark.parametrize("call", CHECKED_PRIME_CALLS.values(),
                         ids=CHECKED_PRIME_CALLS.keys())
def test_checked_prime_is_bounded_before_it_is_tested(monkeypatch, call):
    # As for a field's characteristic: past fields._CHAR_BITS_CAP bits p is
    # refused before is_prime, which would take seconds to minutes.
    cap = fields._CHAR_BITS_CAP
    tested = []
    monkeypatch.setattr(fields, "is_prime", lambda p: tested.append(p))
    with pytest.raises(ValueError, match=f"p has {cap + 1} bits, more than "
                                         f"{cap}$"):
        call(2 ** cap + 1)
    assert tested == []
    with pytest.raises(ValueError, match="not (an odd )?prime$"):
        call(2 ** cap - 1)
    assert tested == [2 ** cap - 1]


def test_hilbert_symbol_symmetry_and_bimultiplicativity():
    rng = random.Random(9)
    vals = [v for v in range(-12, 13) if v]
    for _ in range(200):
        a, a2, b = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        p = rng.choice(HILBERT_PRIMES)
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        assert hilbert_symbol(a * a2, b, p) == \
            hilbert_symbol(a, b, p) * hilbert_symbol(a2, b, p)


def test_hilbert_product_formula():
    rng = random.Random(13)
    for _ in range(100):
        a = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 12))
        b = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 12))
        support = {2} | set(odd_prime_support(a)) | set(odd_prime_support(b))
        prod = real_hilbert_symbol(a, b)
        for p in support:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)


def test_hilbert_symbol_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)


# -- Hasse-Witt --------------------------------------------------------------


def test_hasse_witt_examples():
    ones = diag([1, 1, 1])
    for p in (2, 3, 5, 7):
        assert hasse_witt_invariant(ones, p) == 1
    assert hasse_witt_invariant(diag([-1, -1]), 2) == -1
    assert hasse_witt_invariant(diag([2, 3]), 5) == 1


def test_hasse_witt_requires_qq():
    with pytest.raises(ValueError):
        hasse_witt_invariant(diag([1, 1], field=RR), 2)


def test_hasse_witt_primes_cover_support():
    # The keys are 2, the primes of the discriminant -35 and the primes
    # where the invariant is -1; at every prime of the entries the
    # invariant is still the pairwise product.
    entries = [6, -10, 21]
    beta = diag(entries)
    assert list(get_invariants(beta).hasse_witt) == [2, 5, 7]
    for p in (2, 3, 5, 7):
        assert hasse_witt_invariant(beta, p) == \
            _pairwise_hasse_witt(entries, p)


def test_hasse_witt_additivity():
    rng = random.Random(21)
    vals = [v for v in range(-15, 16) if v]
    for _ in range(40):
        e1 = [rng.choice(vals) for _ in range(rng.randint(1, 3))]
        e2 = [rng.choice(vals) for _ in range(rng.randint(1, 3))]
        q1, q2 = diag(e1), diag(e2)
        d1, d2 = get_discriminant(q1), get_discriminant(q2)
        total = add_gw(q1, q2)
        for p in get_invariants(total).hasse_witt:
            assert hasse_witt_invariant(total, p) == \
                hasse_witt_invariant(q1, p) * hasse_witt_invariant(q2, p) * \
                hilbert_symbol(d1, d2, p)


def _pairwise_hasse_witt(entries, p):
    result = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            result *= hilbert_symbol(entries[i], entries[j], p)
    return result


def test_hasse_witt_matches_pairwise_product_on_random_forms():
    # Diagonal forms and dense forms congruent to them, against the
    # pairwise product of the original entries at every prime up to 31,
    # including primes outside the record's keys.
    rng = random.Random(29)
    vals = [v for v in range(-40, 41) if v]
    for trial in range(40):
        n = rng.randint(1, 6)
        entries = [Fraction(rng.choice(vals), rng.choice((1, 1, 2, 4, 9, 15)))
                   for _ in range(n)]
        beta = diag(entries)
        if trial % 2:
            p_mat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            for _ in range(8):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-3, 3)
                    for k in range(n):
                        p_mat[k][j] += c * p_mat[k][i]
            beta = make_gw_class(
                [[sum(p_mat[k][i] * entries[k] * p_mat[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)], QQ)
        recorded = set(get_invariants(beta).hasse_witt)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            expected = _pairwise_hasse_witt(entries, p)
            assert hasse_witt_invariant(beta, p) == expected, (entries, p)
            if p not in recorded:
                assert expected == 1, (entries, p)


def test_invariant_loop_makes_no_prime_checks(monkeypatch):
    def forbidden(p):
        raise AssertionError("the invariant loop's primes are known primes")

    beta = make_gw_class([[2, 1, 0, 3, 5], [1, -7, 4, 0, 1], [0, 4, 15, 2, 0],
                          [3, 0, 2, -22, 6], [5, 1, 0, 6, 39]], QQ)
    monkeypatch.setattr(forms, "_check_prime", forbidden)
    inv = get_invariants(beta)
    assert inv.rank == 5 and len(inv.hasse_witt) > 2


def test_invariant_records_match_checked_hilbert_symbols():
    # The record, recomputed with the public (checked) hilbert_symbol as
    # the pairwise product over the squarefree diagonal of each form.
    rng = random.Random(91)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-30, 30),
                                                   rng.choice((1, 2, 3, 4)))
        try:
            beta = make_gw_class(rows, QQ)
        except ValueError:
            continue
        inv = get_invariants(beta)
        entries = beta.diagonal_entries()
        primes = {2}.union(*(odd_prime_support(a) for a in entries))
        disc = squarefree_part(prod(entries))
        for p in primes:
            assert hasse_witt_invariant(beta, p) == \
                _pairwise_hasse_witt(entries, p)
        assert sorted(inv.hasse_witt) == sorted(
            p for p in primes if p == 2 or disc % p == 0
            or _pairwise_hasse_witt(entries, p) == -1)
        assert inv.discriminant == disc
        assert inv.signature == sum(1 if a > 0 else -1 for a in entries)


@pytest.mark.parametrize("entries, record", [
    ([1, 1], {2: 1}), ([5, 5], {2: 1}), ([3, 3], {2: -1, 3: -1}),
    # a denominator prime carries -1 although the determinant is 1
    ([Fraction(1, 3), 3], {2: -1, 3: -1}),
    ([7, 1], {2: 1, 7: 1}),  # a discriminant prime is a key at +1
])
def test_hasse_witt_record_is_keyed_by_the_class(entries, record):
    assert get_invariants(diag(entries)).hasse_witt == record


def test_hasse_witt_record_does_not_depend_on_the_representative():
    # Isomorphic classes, dense or diagonal, printed entries or not: the
    # record is the same dict.
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 5)
        entries = [Fraction(rng.choice([v for v in range(-20, 21) if v]),
                            rng.choice((1, 3, 4, 25))) for _ in range(n)]
        p_mat = [[rng.randint(-2, 2) + 3 * (i == j) for j in range(n)]
                 for i in range(n)]
        dense = [[sum(p_mat[k][i] * entries[k] * p_mat[k][j]
                      for k in range(n)) for j in range(n)] for i in range(n)]
        try:
            beta = make_gw_class(dense, QQ)
        except ValueError:
            continue
        printed = make_gw_class(dense, QQ)
        printed.diagonal_entries()
        records = [get_invariants(b).hasse_witt
                   for b in (diag(entries), beta, printed)]
        assert records[0] == records[1] == records[2], entries


def test_one_factorization_classifies_a_class(monkeypatch):
    calls = []
    original = fields.factorize

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(fields, "factorize", counting)
    beta = make_gw_class([[2, 3, 1], [3, 7, 5], [1, 5, 11]], QQ)
    inv = get_invariants(beta)
    assert (inv.signature, inv.discriminant, inv.hasse_witt) == \
        (3, 7, {2: -1, 7: -1})
    assert calls == [28]
    beta = make_gw_class([[Fraction(1, 3), 1], [1, Fraction(2, 5)]], QQ)
    get_invariants(beta)
    # the lcm of the denominators times the determinant's numerator
    assert [abs(n) for n in calls] == [28, 15 * 13]


def test_signature_never_factors(monkeypatch):
    p, q = 10000000000000000051, 10000000000000000087
    beta = diag([p * q, -1, Fraction(1, p * q)])
    assert get_signature(beta) == 1
    assert get_signature(base_change(beta, RR)) == 1
    with pytest.raises(ValueError, match="square class too large to factor"):
        get_invariants(beta)

    def forbidden(n):
        raise AssertionError("the signature reads the pivot signs")

    monkeypatch.setattr(fields, "factorize", forbidden)
    assert get_signature(diag([3, -5, 7])) == 1


def test_hasse_witt_rejects_non_prime():
    with pytest.raises(ValueError):
        hasse_witt_invariant(diag([3]), 4)


# -- isomorphism -------------------------------------------------------------


def test_is_isomorphic_examples():
    assert is_isomorphic_form(diag([1]), diag([4]))
    F13 = gf_construct(13, 1)
    assert is_isomorphic_form(diag([2], field=F13), diag([6], field=F13))
    assert not is_isomorphic_form(diag([1], field=F13), diag([2], field=F13))
    assert is_isomorphic_form(diag([1, -1]), make_hyperbolic_form(QQ, 2))
    assert not is_isomorphic_form(diag([1, 1]), diag([1, -1]))


def test_is_isomorphic_field_mismatch():
    with pytest.raises(ValueError):
        is_isomorphic_form(diag([1]), diag([1], field=RR))


def test_is_isomorphic_invariant_under_congruence():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        entries = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(n)]
        beta = diag(entries)
        # random invertible integer matrix from elementary operations
        p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                for k in range(n):
                    p[k][j] += c * p[k][i]
        g = [[sum(p[k][i] * beta.gram[k][l] * p[l][j]
                  for k in range(n) for l in range(n))
              for j in range(n)] for i in range(n)]
        other = make_gw_class(g, QQ)
        assert is_isomorphic_form(beta, other)


def test_is_isomorphic_is_an_equivalence_on_a_corpus():
    corpus = [diag(e) for e in
              ([1], [4], [2], [1, -1], [-1, 1], [2, 5], [5, 2], [1, 2, -3])]
    for a in corpus:
        assert is_isomorphic_form(a, a)
        for b in corpus:
            if a.rank != b.rank:
                continue
            assert is_isomorphic_form(a, b) == is_isomorphic_form(b, a)
            for c in corpus:
                if b.rank != c.rank:
                    continue
                if is_isomorphic_form(a, b) and is_isomorphic_form(b, c):
                    assert is_isomorphic_form(a, c)


# -- invariant bundles and base change ---------------------------------------


def test_get_invariants_consistency():
    beta = diag([3, -3, 2, 5, 1, -9])
    inv = get_invariants(beta)
    assert inv.rank == 6
    assert abs(inv.signature) <= inv.rank
    assert (inv.signature - inv.rank) % 2 == 0
    assert inv.discriminant == get_discriminant(beta)
    for p, v in inv.hasse_witt.items():
        assert v == hasse_witt_invariant(beta, p)


def test_base_change():
    beta = diag([1, -2])
    real = base_change(beta, RR)
    assert real.field == RR and get_signature(real) == 0
    cplx = base_change(beta, CC)
    assert cplx.field == CC and cplx.rank == 2
    assert get_signature(base_change(diag([2, 5]), RR)) == 2
    with pytest.raises(ValueError):
        base_change(diag([1], field=RR), CC)
    with pytest.raises(ValueError):
        base_change(beta, QQ)


# -- refused inputs ----------------------------------------------------------


REFUSED = [
    (lambda: make_gw_class([], QQ), ValueError, "empty Gram matrix"),
    (lambda: multiply_gw(diag([1]), diag([1], field=RR)), ValueError,
     "field mismatch"),
    (lambda: make_diagonal_form(QQ, []), ValueError,
     "a diagonal form needs at least one entry"),
    (lambda: make_pfister_form(QQ, []), ValueError,
     "a Pfister form needs at least one slot"),
    (lambda: make_pfister_form(QQ, [2, 0]), ValueError,
     "Pfister slots must be nonzero"),
    (lambda: forms.InvariantBundle(2, 1, 1, None), ValueError,
     "signature incompatible with rank"),
    (lambda: forms.InvariantBundle(1, 3, 1, None), ValueError,
     "signature incompatible with rank"),
]


@pytest.mark.parametrize("call, exc, message", REFUSED,
                         ids=[message for *_, message in REFUSED])
def test_refused_form_inputs(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
