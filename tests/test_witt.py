from __future__ import annotations

import itertools
import math
import random

import pytest

from conftest import gf_isotropy_oracle, primitive_zero_mod

from a1degrees import cli, witt
from a1degrees.fields import CC, QQ, RR, is_prime
from a1degrees.forms import (MAX_MADE_RANK, InvariantBundle, _record_symbols,
                             add_gw, empty_form, get_invariants,
                             get_signature, hilbert_symbol,
                             is_isomorphic_form, make_diagonal_form,
                             make_gw_class, make_hyperbolic_form)
from a1degrees.witt import (anisotropic_dimension, anisotropic_dimension_qp,
                            anisotropic_part, is_anisotropic, is_isotropic,
                            sum_decomposition, witt_index)


def diag(entries, field=QQ):
    return make_diagonal_form(field, entries)


def rebuild(report, field=QQ):
    part = report.anisotropic_part
    if report.witt_index == 0:
        return part
    h = make_hyperbolic_form(field, 2 * report.witt_index)
    return add_gw(part, h) if part.rank else h


# -- local anisotropic dimensions --------------------------------------------


def test_qp_dimension_examples():
    for p in (2, 3, 5, 7, 11):
        assert anisotropic_dimension_qp(diag([1, -1]), p) == 0
    assert anisotropic_dimension_qp(diag([1, 1, 1, 1]), 2) == 4
    # the mod-32 oracle certifies that the four-square form has no
    # primitive 2-adic zero
    assert not primitive_zero_mod([1, 1, 1, 1], 2)


def test_qp_dimension_of_five_squares_at_two():
    # dimension 1 would mean <1,1,1,1,1> = 2H + <1> over Q_2; cancelling
    # <1> (Witt cancellation) that would make <1,1,1,1> isotropic over
    # Q_2, which the oracle above refutes, so the kernel has dimension 3
    assert anisotropic_dimension_qp(diag([1, 1, 1, 1, 1]), 2) == 3


def test_qp_dimension_requires_qq_and_prime():
    with pytest.raises(ValueError):
        anisotropic_dimension_qp(diag([1], field=RR), 2)
    with pytest.raises(ValueError):
        anisotropic_dimension_qp(diag([1]), 6)


def closed_form_push(inv, n):
    """The discriminant and record of beta - nH from beta's record, in closed
    form: d_a = (-1)^n d and eps_p (-1, -1)_p^(n(n-1)/2) (d_a, (-1)^n)_p."""
    d_a = inv.discriminant * (-1) ** n
    eps = {}
    for p, t in inv.hasse_witt.items():
        if n * (n - 1) // 2 % 2:
            t *= hilbert_symbol(-1, -1, p)
        eps[p] = t * hilbert_symbol(d_a, (-1) ** n, p)
    return d_a, _record_symbols(d_a, eps)


def test_plane_push_matches_the_closed_form():
    rng = random.Random(61)
    vals = [v for v in range(-30, 31) if v]
    seen = set()
    for _ in range(150):
        n = rng.randint(0, 8)
        beta = diag([rng.choice(vals) for _ in range(rng.randint(1, 4))]
                    + [1, -1] * n)
        inv = beta._invariants
        record = dict(inv.hasse_witt)
        part = anisotropic_part(beta)
        index = (beta.rank - part.rank) // 2
        seen.add(index)
        expected = InvariantBundle(part.rank, inv.signature,
                                   *closed_form_push(inv, index))
        assert part._invariants == expected, beta
        assert inv.hasse_witt == record  # the push leaves beta's record alone
    assert set(range(9)) <= seen


def local_isotropy_corpus():
    entries = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 15, -15]
    rng = random.Random(23)
    forms = []
    for a, b in itertools.combinations_with_replacement(entries, 2):
        forms.append([a, b])
    for _ in range(40):
        forms.append([rng.choice(entries) for _ in range(3)])
    for _ in range(25):
        forms.append([rng.choice(entries) for _ in range(4)])
    return forms


def test_local_isotropy_criteria_match_primitive_solution_oracle():
    for form in local_isotropy_corpus():
        for p in (2, 3, 5, 7):
            claimed = anisotropic_dimension_qp(diag(form), p) < len(form)
            assert claimed == primitive_zero_mod(form, p), (form, p)


def test_qp_dimension_bounds_and_parity():
    for form in local_isotropy_corpus():
        for p in (2, 3, 5):
            dim = anisotropic_dimension_qp(diag(form), p)
            assert 0 <= dim <= min(4, len(form))
            assert dim % 2 == len(form) % 2


# -- global anisotropic dimension --------------------------------------------


def test_anisotropic_dimension_examples():
    assert anisotropic_dimension(diag([1, 2, -3])) == 1
    assert anisotropic_dimension(diag([1, 1, 1, 1])) == 4
    assert anisotropic_dimension(diag([1, 1], field=CC)) == 0
    assert anisotropic_dimension(diag([1, 1, 1], field=CC)) == 1
    assert anisotropic_dimension(diag([3, -4, 7], field=RR)) == 1


def test_isotropy_examples():
    alpha = diag([1, 2, -3])
    assert not is_anisotropic(alpha)
    assert is_isotropic(alpha)
    assert is_anisotropic(diag([1, 1]))
    assert not is_isotropic(diag([1]))


def test_witt_index_examples():
    assert witt_index(diag([3, -3, 2, 5, 1, -9])) == 2
    for n in (1, 2, 3):
        assert witt_index(make_hyperbolic_form(QQ, 2 * n)) == n


def test_finite_field_isotropy_matches_exhaustive_search():
    for q in (3, 5, 7, 13, 9, 25, 27):
        F = cli.parse_field(f"GF({q})")
        units = [a for a in F.elements() if a]
        rng = random.Random(q)
        forms = [[rng.choice(units) for _ in range(rank)]
                 for rank in (1, 2, 3, 4) for _ in range(12)]
        forms += [[1, -1], [1, 1], [1, 1, 1, 1]]
        for entries in forms:
            beta = diag(entries, field=F)
            assert is_isotropic(beta) == gf_isotropy_oracle(entries, F), \
                (q, entries)
            dim = anisotropic_dimension(beta)
            assert dim <= 2 and dim % 2 == len(entries) % 2
        # -1 is a square exactly when q = 1 mod 4: in GF(9) and GF(25)
        assert is_isotropic(diag([1, 1], field=F)) == (q % 4 == 1)


@pytest.mark.parametrize("field", ["QQ", "RR", "CC", "GF(7)", "GF(9)"])
def test_empty_form_is_anisotropic_of_dimension_zero(field):
    beta = empty_form(cli.parse_field(field))
    assert anisotropic_dimension(beta) == 0 and witt_index(beta) == 0
    assert not is_isotropic(beta) and is_anisotropic(beta)
    rep = sum_decomposition(beta)
    assert rep.display == "0" and rep.anisotropic_part.rank == 0


def _witt_classes(rng, count):
    """Seeded QQ classes with planted planes <a, -a>, each as a diagonal
    and as a dense Gram of the same class."""
    vals = [v for v in range(-30, 31) if v]
    for _ in range(count):
        d = [rng.choice(vals) for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(vals)
            d += [a, -a]
        rng.shuffle(d)
        n = len(d)
        p = _unimodular(rng, n) if n > 1 else [[1]]
        yield diag(d)
        yield make_gw_class([[sum(p[k][i] * d[k] * p[k][j] for k in range(n))
                              for j in range(n)] for i in range(n)], QQ)


def test_anisotropic_dimension_is_the_largest_local_one():
    # Hasse-Minkowski: the kernel over Q is anisotropic at some place and
    # no larger than the kernel at any place, so its dimension is the
    # largest over R and the record's primes; no other prime exceeds it.
    small = [p for p in range(2, 60) if is_prime(p)]
    seen = set()
    for beta in _witt_classes(random.Random(89), 120):
        dim = anisotropic_dimension(beta)
        record = list(get_invariants(beta).hasse_witt)
        assert dim == max([abs(get_signature(beta))] +
                          [anisotropic_dimension_qp(beta, p) for p in record])
        for p in small:
            if p not in record:
                assert anisotropic_dimension_qp(beta, p) <= dim, (beta, p)
        seen.add(witt_index(beta))
    assert set(range(5)) <= seen


# -- anisotropic parts and decomposition -------------------------------------


def test_anisotropic_part_examples():
    part = anisotropic_part(diag([3, -3, 2, 5, 1, -9]))
    assert is_isomorphic_form(part, diag([2, 5]))
    assert anisotropic_part(make_hyperbolic_form(QQ, 2)).rank == 0
    four = diag([1, 1, 1, 1])
    assert is_isomorphic_form(anisotropic_part(four), four)


def test_sum_decomposition_strings():
    assert sum_decomposition(diag([3, -3, 2, 5, 1, -9])).display == \
        "2H + <2> + <5>"
    assert sum_decomposition(diag([81])).display == "<1>"
    assert sum_decomposition(make_hyperbolic_form(QQ, 4)).display == "2H"
    rep = sum_decomposition(diag([81]))
    assert rep.witt_index == 0 and rep.anisotropic_part.rank == 1


def test_decomposition_past_the_made_rank_bound():
    n = MAX_MADE_RANK // 2 + 1
    rep = sum_decomposition(diag([1, -1] * n))
    assert rep.display == f"{n}H" and rep.witt_index == n
    rep = sum_decomposition(diag([1, -1] * n + [2, 3]))
    assert rep.display == f"{n}H + <2> + <3>"
    assert is_isomorphic_form(rep.anisotropic_part, diag([2, 3]))


def test_hyperbolic_stability():
    rng = random.Random(31)
    vals = [v for v in range(-20, 21) if v]
    for _ in range(15):
        entries = [rng.choice(vals) for _ in range(rng.randint(1, 4))]
        beta = diag(entries)
        stacked = add_gw(beta, make_hyperbolic_form(QQ, 2))
        assert anisotropic_dimension(stacked) == anisotropic_dimension(beta)
        assert witt_index(stacked) == witt_index(beta) + 1


def test_decomposition_round_trip_over_qq():
    rng = random.Random(0)
    vals = [v for v in range(-30, 31) if v]
    for _ in range(60):
        entries = [rng.choice(vals) for _ in range(rng.randint(1, 6))]
        beta = diag(entries)
        rep = sum_decomposition(beta)
        part = rep.anisotropic_part
        assert part.rank + 2 * rep.witt_index == beta.rank
        assert part.rank == 0 or is_anisotropic(part)
        assert is_isomorphic_form(beta, rebuild(rep)), entries
        if part.rank:
            a, b = get_invariants(rebuild(rep)), get_invariants(beta)
            assert (a.rank, a.signature, a.discriminant) == \
                (b.rank, b.signature, b.discriminant)
            # prime sets may differ by trivial symbols from the support
            for p in set(a.hasse_witt) | set(b.hasse_witt):
                assert a.hasse_witt.get(p, 1) == b.hasse_witt.get(p, 1)


def test_decomposition_round_trip_over_gf():
    for q in (3, 13, 9, 25, 27):
        F = cli.parse_field(f"GF({q})")
        units = [a for a in F.elements() if a]
        rng = random.Random(q + 1)
        for _ in range(20):
            entries = [rng.choice(units) for _ in range(rng.randint(1, 5))]
            beta = diag(entries, field=F)
            rep = sum_decomposition(beta)
            assert rep.anisotropic_part.rank <= 2
            assert is_isomorphic_form(beta, rebuild(rep, field=F)), (q, entries)


def test_decomposition_round_trip_over_rr_and_cc():
    for field, entries in ((RR, [3, -4, 7]), (RR, [-1, -2]), (CC, [5, 7, 11])):
        beta = diag(entries, field=field)
        rep = sum_decomposition(beta)
        assert is_isomorphic_form(beta, rebuild(rep, field=field))


def test_eight_hyperbolic_identity():
    total = None
    for _ in range(6):
        piece = diag([3, -1])
        total = piece if total is None else add_gw(total, piece)
    for _ in range(2):
        total = add_gw(total, diag([2, -6]))
    assert is_isomorphic_form(total, make_hyperbolic_form(QQ, 16))
    assert sum_decomposition(total).display == "8H"


def test_anisotropic_part_entries_are_sorted_squarefree():
    from a1degrees.fields import squarefree_part
    rng = random.Random(41)
    vals = [v for v in range(-30, 31) if v]
    for _ in range(20):
        entries = [rng.choice(vals) for _ in range(rng.randint(2, 5))]
        part = anisotropic_part(diag(entries))
        got = [part.gram[i][i] for i in range(part.rank)]
        assert got == sorted(got)
        assert all(e.denominator == 1 and squarefree_part(e) == e for e in got)


# -- the rational construction reads only the class --------------------------


def _cli_stdout(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _matrix_arg(rows):
    return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"


def _unimodular(rng, n):
    """A product of elementary integer matrices: determinant 1."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for row in p:
            row[j] += c * row[i]
    return p


def test_display_depends_only_on_the_class(capsys):
    pairs = [(_matrix_arg([[-4, 0, 0, 0], [0, 2, 0, 0], [0, 0, 23, 0],
                           [0, 0, 0, -8]]),
              _matrix_arg([[23, 0, 0, 0], [0, -19, 0, 0], [0, 0, 19, 0],
                           [0, 0, 0, -9]]))]
    rng = random.Random(61)
    vals = [v for v in range(-30, 31) if v]
    for _ in range(12):
        n = rng.randint(2, 5)
        d = [rng.choice(vals) for _ in range(n)]
        p = _unimodular(rng, n)
        gram = [[sum(p[k][i] * d[k] * p[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        assert is_isomorphic_form(diag(d), make_gw_class(gram, QQ))
        pairs.append((_matrix_arg([[d[i] if i == j else 0 for j in range(n)]
                                   for i in range(n)]), _matrix_arg(gram)))
    for first, second in pairs:
        for command in ("decompose", "anisotropic-part"):
            outs = [_cli_stdout(capsys, "form", command, "--field", "QQ",
                                "--matrix", m) for m in (first, second)]
            assert outs[0] == outs[1], (command, first, second)
    assert _cli_stdout(capsys, "form", "decompose", "--field", "QQ",
                       "--diag", "23,-19,19,-9") == "1H + <-1> + <23>\n"


def _prime_heavy_forms():
    odd = [p for p in range(3, 200) if is_prime(p)]
    forms = []
    for count in (12, 15):
        entries = [math.prod(odd[:count][i::4]) for i in range(4)]
        forms.append(entries)
        forms.append(entries[:3] + [-entries[3]])
    # rank 3 with Hasse-Witt -1 at 3, 5, ..., 41, none dividing the
    # discriminant: a peeled entry <q> with q prime would have to be a
    # nonresidue modulo all twelve, so the entry is built from them instead
    m = math.prod(odd[:12])
    forms.append([m, m * 26293, 69467])
    return forms


@pytest.mark.parametrize("entries", _prime_heavy_forms())
def test_prime_heavy_forms_decompose(monkeypatch, entries):
    beta = diag(entries)
    inv = get_invariants(beta)
    pool = {2} | {p for p, t in inv.hasse_witt.items()
                  if t == -1 or inv.discriminant % p == 0}
    calls = []
    real = witt._hilbert
    monkeypatch.setattr(witt, "_hilbert",
                        lambda *args: calls.append(args) or real(*args))
    rep = sum_decomposition(beta)
    # definite forms are anisotropic; the indefinite rank-4 ones split one H
    assert rep.witt_index == (0 if min(entries) > 0 else 1)
    assert is_isomorphic_form(beta, rebuild(rep))
    # no search over subsets of the pool: quadratically many symbols, all
    # through the unchecked kernel, so the count cannot pass vacuously
    assert 0 < len(calls) <= 2 * (len(pool) + 2) ** 2, (len(calls), len(pool))


def test_realization_cap_is_a_domain_error(monkeypatch, capsys):
    # <6, 21> has pool {2, 7}; its plane needs the auxiliary prime 3
    assert sum_decomposition(diag([6, 21])).display == "<3> + <42>"
    monkeypatch.setattr(witt, "_REALIZATION_CAP", 3)
    with pytest.raises(ValueError, match="realization cap"):
        anisotropic_part(diag([6, 21]))
    code = cli.main(["form", "decompose", "--field", "QQ", "--diag", "6,21"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "realization cap" in captured.err


@pytest.mark.parametrize("entries", [[2, 3], [2, 3, 1, -1], [1, 1, 1, 2, 3]],
                         ids=["n=0", "n=1", "rank-5"])
def test_a_faulty_realization_fails_the_witness_check(monkeypatch, entries):
    # A plane with the right discriminant but the wrong Hasse-Witt symbols:
    # the one check, beta against the part plus nH, catches it.
    monkeypatch.setattr(witt, "_plane", lambda sig, disc, eps, pool: [1, disc])
    with pytest.raises(AssertionError, match="witness check"):
        anisotropic_part(diag(entries))


def test_f2_solver_matches_exhaustive_search():
    rng = random.Random(17)
    for _ in range(300):
        ncols, nrows = rng.randint(1, 5), rng.randint(1, 6)
        rows = [(rng.getrandbits(ncols), rng.random() < 0.5)
                for _ in range(nrows)]

        def solves(x):
            return all(bin(r & x).count("1") % 2 == b for r, b in rows)

        x = witt._solve_f2(rows)
        assert (x is not None) == any(solves(y) for y in range(1 << ncols))
        if x is not None:
            assert solves(x) and 0 <= x < 1 << ncols
