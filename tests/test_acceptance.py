"""Acceptance gate: end-to-end fixtures with explicit time budgets.

Each criterion prints a single PASS/FAIL line (bypassing capture so the
lines always appear in the pytest output) and enforces its wall-clock
budget. All comparisons are exact; isomorphism means is_isomorphic_form.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import (HILBERT_CORPUS, HILBERT_PRIMES, gf_isotropy_oracle,
                      hilbert_oracle, real_hilbert_symbol)

from a1degrees.degrees import EndoSystem, global_a1_degree, local_a1_degree
from a1degrees.fields import QQ, RR, gf_construct
from a1degrees.forms import (add_gw, diagonalize, get_invariants,
                             get_signature, hilbert_symbol,
                             is_isomorphic_form, make_diagonal_form,
                             make_gw_class, make_hyperbolic_form)
from a1degrees.poly import Ideal, PolyRing, resultant_univariate
from a1degrees.witt import (anisotropic_part, is_isotropic, sum_decomposition,
                            witt_index)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        report(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        report(f"criterion {number} ({label}): FAIL "
               f"[budget exceeded: {elapsed:.3f}s >= {budget_seconds}s]")
        raise AssertionError(f"budget exceeded: {elapsed:.3f}s")
    report(f"criterion {number} ({label}): PASS "
           f"[{elapsed:.3f}s < {budget_seconds}s]")


def report(line: str) -> None:
    from conftest import ACCEPTANCE_REPORT
    ACCEPTANCE_REPORT.append(line)
    print(line)


def diag(entries, field=QQ):
    return make_diagonal_form(field, entries)


def system(names, polys, field=QQ):
    ring = PolyRing(field, tuple(names))
    return ring, EndoSystem.of(ring, *polys)


QUARTIC = "x^4 - 6*x^2 - 7*x - 6"
GRASSMANNIAN = ["x2 - x1*x3", "1 - x1*x4", "x4 - x1 - x3^2", "-x2 - x3*x4"]
FERMAT = ["y1^3 + y3^3 + 1", "3*y1^2*y2 + 3*y3^2*y4",
          "3*y1*y2^2 + 3*y3*y4^2", "y2^3 + y4^3 + 1"]


def test_criterion_1_diagonalization():
    beta = make_gw_class([[1, 3], [3, 7]], QQ)
    with criterion(1, "diagonalization", 0.001):
        d, _ = diagonalize(beta)
    assert [d.gram[i][i] for i in range(2)] == [Fraction(1), Fraction(-2)]


def test_criterion_2_signature():
    gamma = make_gw_class([[3, 0, 0], [0, -4, 0], [0, 0, 7]], RR)
    with criterion(2, "signature", 0.001):
        sig = get_signature(gamma)
    assert sig == 1


def test_criterion_3_isotropy():
    with criterion(3, "isotropy and decomposition", 0.1):
        assert is_isotropic(diag([1, 2, -3]))
        beta = diag([3, -3, 2, 5, 1, -9])
        assert is_isomorphic_form(anisotropic_part(beta), diag([2, 5]))
        assert sum_decomposition(beta).display == "2H + <2> + <5>"


def test_criterion_4_univariate_degrees():
    with criterion(4, "univariate degree suite", 1.0):
        ring, f = system(("x",), [QUARTIC])
        alpha = global_a1_degree(f)
        assert is_isomorphic_form(alpha, make_gw_class(
            [[-7, -6, 0, 1], [-6, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], QQ))
        a1 = local_a1_degree(f, Ideal.of(ring, "x^2 + x + 1"))
        a2 = local_a1_degree(f, Ideal.of(ring, "x - 3"))
        a3 = local_a1_degree(f, Ideal.of(ring, "x + 2"))
        assert is_isomorphic_form(a1, make_gw_class([[-5, -7], [-7, -2]], QQ))
        assert is_isomorphic_form(a2, diag([65]))
        assert is_isomorphic_form(a3, diag([-15]))
        assert is_isomorphic_form(add_gw(a1, add_gw(a2, a3)), alpha)


def test_criterion_5_grassmannian_euler_characteristic():
    with criterion(5, "Euler characteristic over GF(27)", 30.0):
        F27 = gf_construct(3, 3)
        _, f = system(("x1", "x2", "x3", "x4"), GRASSMANNIAN, field=F27)
        beta = global_a1_degree(f)
        assert beta.rank == 6
        assert sum_decomposition(beta).display == "2H + <1> + <1>"


def test_criterion_6_fermat_cubic():
    with criterion(6, "Fermat cubic lines", 300.0):
        ring, f = system(("y1", "y2", "y3", "y4"), FERMAT)
        alpha = global_a1_degree(f)
        assert alpha.rank == 18
        assert sum_decomposition(alpha).display == "8H + <1> + <1>"

        point = Ideal.of(ring, "y4", "y3 + 1", "y2 + 1", "y1")
        beta = local_a1_degree(f, point)
        assert beta.gram == ((Fraction(81),),)
        assert is_isomorphic_form(beta, diag([1]))
        assert sum_decomposition(beta).display == "<1>"

        # resultant of the partial derivatives restricted to the line
        zring = PolyRing(QQ, ("z3", "z4"))
        g1 = zring.from_string("3*z4^2")
        g2 = zring.from_string("3*z3^2")
        res = resultant_univariate(g1, g2)
        assert res == Fraction(81)
        assert is_isomorphic_form(diag([res]), beta)

        total = None
        for _ in range(6):
            piece = diag([3, -1])
            total = piece if total is None else add_gw(total, piece)
        for _ in range(2):
            total = add_gw(total, diag([2, -6]))
        assert is_isomorphic_form(total, make_hyperbolic_form(QQ, 16))


def test_criterion_7_property_suites():
    with criterion(7, "property suites", 120.0):
        # Hilbert product formula on the corpus, finite places plus the
        # real place
        from a1degrees.fields import odd_prime_support
        for a in HILBERT_CORPUS:
            for b in HILBERT_CORPUS:
                prod = real_hilbert_symbol(a, b)
                support = {2} | set(odd_prime_support(Fraction(a))) \
                    | set(odd_prime_support(Fraction(b)))
                for p in support:
                    prod *= hilbert_symbol(a, b, p)
                assert prod == 1, (a, b)
        # closed form against the primitive-solution oracle
        for p in HILBERT_PRIMES:
            for a in HILBERT_CORPUS:
                for b in HILBERT_CORPUS:
                    assert hilbert_symbol(a, b, p) == hilbert_oracle(a, b, p)
        # exhaustive finite-field isotropy oracle
        for q in (3, 5, 7, 13):
            F = gf_construct(q, 1)
            rng = random.Random(q)
            forms = [[rng.choice(range(1, q)) for _ in range(rank)]
                     for rank in (1, 2, 3, 4) for _ in range(8)]
            for entries in forms:
                assert is_isotropic(diag(entries, field=F)) == \
                    gf_isotropy_oracle(entries, F)
        # 200 random rational forms: Witt round trip and invariant equality
        rng = random.Random(2024)
        vals = [v for v in range(-30, 31) if v]
        for _ in range(200):
            entries = [rng.choice(vals) for _ in range(rng.randint(1, 6))]
            beta = diag(entries)
            part = anisotropic_part(beta)
            n = witt_index(beta)
            rebuilt = part
            if n:
                h = make_hyperbolic_form(QQ, 2 * n)
                rebuilt = add_gw(part, h) if part.rank else h
            assert is_isomorphic_form(beta, rebuilt), entries
            va, vb = get_invariants(rebuilt), get_invariants(beta)
            assert (va.rank, va.signature, va.discriminant) == \
                (vb.rank, vb.signature, vb.discriminant)
            for p in set(va.hasse_witt) | set(vb.hasse_witt):
                assert va.hasse_witt.get(p, 1) == vb.hasse_witt.get(p, 1)


def _poly_eval_mod(coeffs, x, p):
    return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def test_criterion_8_robustness():
    with criterion(8, "robustness", 600.0):
        # fixture 4 under the (only) variable relabeling
        _, f = system(("t",), [QUARTIC.replace("x", "t")])
        assert is_isomorphic_form(global_a1_degree(f), make_gw_class(
            [[-7, -6, 0, 1], [-6, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], QQ))

        # fixture 5 under a permuted variable order and a second modulus
        F27 = gf_construct(3, 3)
        _, f = system(("x4", "x3", "x2", "x1"), GRASSMANNIAN, field=F27)
        beta = global_a1_degree(f)
        assert sum_decomposition(beta).display == "2H + <1> + <1>"

        other_modulus = (2, 2, 0, 1)  # t^3 + 2t + 2, checked irreducible
        assert all(_poly_eval_mod(other_modulus, x, 3) for x in range(3))
        assert other_modulus != F27.modulus
        F27b = gf_construct(3, 3, other_modulus)
        _, f = system(("x1", "x2", "x3", "x4"), GRASSMANNIAN, field=F27b)
        assert sum_decomposition(global_a1_degree(f)).display == \
            "2H + <1> + <1>"

        # fixture 6 under a permuted variable order
        _, f = system(("y4", "y3", "y2", "y1"), FERMAT)
        alpha = global_a1_degree(f)
        assert alpha.rank == 18
        assert sum_decomposition(alpha).display == "8H + <1> + <1>"
