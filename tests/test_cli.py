from __future__ import annotations

import argparse
import errno
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from test_fields import _semiprime
from test_output_digest import _tool

from a1degrees import cli, degrees, fields, forms, poly, witt
from a1degrees.fields import QQ, gf_construct
from a1degrees.poly import ParseError
from a1degrees.forms import (is_isomorphic_form, make_diagonal_form,
                             make_gw_class)
from a1degrees.witt import sum_decomposition


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# -- session replay ----------------------------------------------------------


def test_replay_diagonalization(capsys):
    obj = run_json(capsys, "form", "diagonalize", "--field", "QQ",
                   "--matrix", "[[1,3],[3,7]]")
    assert obj["gram"] == [["1", "0"], ["0", "-2"]]


def test_replay_make_diagonal_over_gf13(capsys):
    obj = run_json(capsys, "form", "make", "diagonal", "--field", "GF(13)",
                   "--entries", "2,6")
    assert obj["gram"] == [["2", "0"], ["0", "6"]]
    assert obj["rank"] == 2


def test_replay_signature(capsys):
    obj = run_json(capsys, "form", "invariants", "--field", "RR",
                   "--matrix", "[[3,0,0],[0,-4,0],[0,0,7]]")
    assert obj["signature"] == 1


def test_replay_isotropy(capsys):
    obj = run_json(capsys, "form", "decompose", "--field", "QQ",
                   "--diag", "1,2,-3")
    assert obj["isotropic"] is True


def test_replay_anisotropic_part(capsys):
    obj = run_json(capsys, "form", "anisotropic-part", "--field", "QQ",
                   "--diag", "3,-3,2,5,1,-9")
    part = cli.gwclass_from_json(obj)
    assert is_isomorphic_form(part, make_diagonal_form(QQ, [2, 5]))


def test_replay_decomposition_string(capsys):
    code, out, _ = run(capsys, "form", "decompose", "--field", "QQ",
                       "--diag", "3,-3,2,5,1,-9")
    assert code == 0
    assert out.strip() == "2H + <2> + <5>"


def test_decomposition_past_the_made_rank_bound(capsys):
    # The witness check rebuilds nH itself, so the bound on `form make`
    # does not reach a decomposition with Witt index above it.
    n = forms.MAX_MADE_RANK // 2 + 1
    diag = ",".join(["1,-1"] * n + ["2,3"])
    code, out, err = run(capsys, "form", "decompose", "--field", "QQ",
                         "--diag", diag)
    assert code == 0, err
    assert out.strip() == f"{n}H + <2> + <3>"
    obj = run_json(capsys, "form", "anisotropic-part", "--field", "QQ",
                   "--diag", diag)
    part = cli.gwclass_from_json(obj)
    assert is_isomorphic_form(part, make_diagonal_form(QQ, [2, 3]))


QUARTIC = "x^4 - 6*x^2 - 7*x - 6"


def test_replay_univariate_degrees(capsys):
    glob = cli.gwclass_from_json(run_json(
        capsys, "degree", "global", "--field", "QQ", "--vars", "x",
        "--polys", QUARTIC))
    expected = make_gw_class(
        [[-7, -6, 0, 1], [-6, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], QQ)
    assert is_isomorphic_form(glob, expected)

    locals_ = []
    for ideal, want in (("x^2 + x + 1", [[-5, -7], [-7, -2]]),
                        ("x - 3", [[65]]),
                        ("x + 2", [[-15]])):
        beta = cli.gwclass_from_json(run_json(
            capsys, "degree", "local", "--field", "QQ", "--vars", "x",
            "--polys", QUARTIC, "--ideal", ideal))
        assert is_isomorphic_form(beta, make_gw_class(want, QQ))
        locals_.append(beta)
    from a1degrees.forms import add_gw
    total = add_gw(locals_[0], add_gw(locals_[1], locals_[2]))
    assert is_isomorphic_form(total, glob)


def test_replay_local_basis(capsys):
    obj = run_json(capsys, "basis", "local", "--field", "QQ", "--vars", "x",
                   "--polys", QUARTIC, "--ideal", "x^2 + x + 1")
    assert obj["size"] == 2


GRASSMANNIAN = "x2 - x1*x3; 1 - x1*x4; x4 - x1 - x3^2; -x2 - x3*x4"


def test_replay_grassmannian_euler_characteristic(capsys):
    obj = run_json(capsys, "degree", "global", "--field", "GF(27)",
                   "--vars", "x1,x2,x3,x4", "--polys", GRASSMANNIAN)
    beta = cli.gwclass_from_json(obj)
    assert beta.rank == 6
    assert sum_decomposition(beta).display == "2H + <1> + <1>"
    # the published Gram matrix, over the same field
    F27 = beta.field
    rows = [[0, 0, 0, 0, 0, 1],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [1, 0, 0, 0, 0, 0]]
    published = make_gw_class(
        [[F27.coerce(v) for v in row] for row in rows], F27)
    assert is_isomorphic_form(beta, published)


FERMAT = ("y1^3 + y3^3 + 1; 3*y1^2*y2 + 3*y3^2*y4; "
          "3*y1*y2^2 + 3*y3*y4^2; y2^3 + y4^3 + 1")


def test_replay_fermat_cubic(capsys):
    obj = run_json(capsys, "degree", "global", "--field", "QQ",
                   "--vars", "y1,y2,y3,y4", "--polys", FERMAT)
    alpha = cli.gwclass_from_json(obj)
    assert alpha.rank == 18
    assert sum_decomposition(alpha).display == "8H + <1> + <1>"

    local = cli.gwclass_from_json(run_json(
        capsys, "degree", "local", "--field", "QQ", "--vars", "y1,y2,y3,y4",
        "--polys", FERMAT, "--ideal", "y4; y3 + 1; y2 + 1; y1"))
    assert local.gram == ((Fraction(81),),)
    assert sum_decomposition(local).display == "<1>"
    assert is_isomorphic_form(local, make_diagonal_form(QQ, [81]))


def test_replay_hilbert_symbol(capsys):
    obj = run_json(capsys, "symbol", "hilbert", "2", "3", "2")
    assert obj["symbol"] == -1


def test_hilbert_symbol_past_the_prime_cap_exits_1(capsys):
    # 2^4423 - 1 is prime, but testing it takes seconds.
    start = time.perf_counter()
    code, out, err = run(capsys, "symbol", "hilbert", "3", "5",
                         str(2 ** 4423 - 1))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: p has 4423 bits, more than 3072\n"


def test_isomorphic_command(capsys):
    code, out, _ = run(capsys, "form", "isomorphic", "--field", "QQ",
                       "[[1,3],[3,7]]", "[[1,0],[0,-2]]")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "form", "isomorphic", "--field", "QQ",
                       "1,1", "1,-1")
    assert code == 0 and out.strip() == "false"


# -- JSON round trips --------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("form", "diagonalize", "--field", "QQ", "--matrix", "[[1,3],[3,7]]"),
    ("form", "make", "diagonal", "--field", "QQ", "--entries", "1/2,-3"),
    ("form", "make", "hyperbolic", "--field", "QQ", "--rank", "4"),
    ("form", "make", "pfister", "--field", "QQ", "--entries", "2,3"),
    ("form", "make", "diagonal", "--field", "GF(27)", "--entries", "2,1"),
])
def test_json_round_trip(capsys, argv):
    obj = run_json(capsys, *argv)
    beta = cli.gwclass_from_json(obj)
    again = cli.gwclass_to_json(beta)
    assert again["gram"] == obj["gram"]
    assert again["field"] == obj["field"]


# The first irreducible among the candidates
# tuple(rng.randrange(101) for _ in range(24)) + (1,) of random.Random(1):
# the fifth.  The search for GF(101^24)'s own modulus gives up first.
MODULUS_101_24 = (94, 47, 11, 56, 84, 65, 13, 99, 20, 66, 50, 47, 62, 93, 3,
                  60, 5, 39, 90, 78, 75, 74, 50, 82, 1)


@pytest.mark.parametrize("p, modulus", [(101, MODULUS_101_24), (3, (2, 1, 1))])
def test_json_round_trip_builds_the_recorded_field_once(monkeypatch, p,
                                                        modulus):
    # GF(9)'s searched modulus is (1, 0, 1): a recorded one that differs
    # must come back as recorded.
    F = gf_construct(p, len(modulus) - 1, modulus)
    t = F.coerce((0, 1))
    beta = make_diagonal_form(F, [t, t + F.one(), F.one()])
    tests = []
    rabin = fields._is_irreducible
    monkeypatch.setattr(fields, "_is_irreducible",
                        lambda f, q: tests.append(f) or rabin(f, q))
    cli.parse_field.cache_clear()
    again = cli.gwclass_from_json(cli.gwclass_to_json(beta))
    assert tests == [modulus]
    assert again.field.modulus == modulus
    assert again.gram == beta.gram


def test_gf_entries_parse_back_from_their_rendering():
    for q in (9, 27):
        field = cli.parse_field(f"GF({q})")
        for a in field.elements():
            assert cli._entry_from_str(str(a), field) == a


@pytest.mark.parametrize("entry", ["t^2", "t^3", "2*x", "t^", "1 +", "t*t", ""])
def test_gf_entry_parse_rejects_bad_terms(entry):
    with pytest.raises(ParseError):
        cli.gwclass_from_json({"field": {"name": "GF(9)"}, "gram": [[entry]]})


def test_gf_entry_products_weigh_one_residue_mod_p():
    # Over GF(3^12) each coefficient the parser makes is one residue mod 3,
    # one word, so each product weighs 1 and this expansion stays under the
    # cap, as over GF(3) itself.
    cube = "(1 + t + 2*t^2 + t^4)^1000"
    F = gf_construct(3, 12)
    start = time.perf_counter()
    assert cli._entry_from_str(f"{cube} - {cube}", F) == 0
    assert time.perf_counter() - start < 2.0


RANK8 = ("[[1,-2,-1,0,1,2,3,-3],[-2,6,-1,3,0,-3,1,-2],[-1,-1,3,-1,-1,-1,-1,-1],"
         "[0,3,-1,6,-2,1,-3,0],[1,0,-1,-2,1,3,2,1],[2,-3,-1,1,3,2,0,2],"
         "[3,1,-1,-3,2,0,2,3],[-3,-2,-1,0,1,2,3,1]]")


def count_eliminations(monkeypatch) -> list:
    """Record the rank of each symmetric elimination; forbid the public
    diagonalization."""
    calls = []
    original = forms._eliminate

    def counting(gram, field, track=False):
        calls.append(len(gram))
        return original(gram, field, track)

    def forbidden(*args):
        raise AssertionError("a query must classify from the class's pivots")

    monkeypatch.setattr(forms, "_eliminate", counting)
    monkeypatch.setattr(forms, "diagonalize", forbidden)
    return calls


@pytest.mark.parametrize("argv", [
    ("degree", "global", "--field", "QQ", "--vars", "x", "--polys", QUARTIC),
    ("form", "invariants", "--field", "QQ", "--matrix", RANK8),
    # the base-changed class keeps the rational class's elimination
    ("degree", "global", "--field", "QQ", "--vars", "x", "--polys", QUARTIC,
     "--base-change", "RR"),
    ("degree", "global", "--field", "QQ", "--vars", "x", "--polys", QUARTIC,
     "--base-change", "CC"),
    # zeros at infinity: the Bezoutian's Gram, eliminated once
    ("degree", "global", "--field", "QQ", "--vars", "x,y", "--polys",
     "x^2*y - 3*y + 1; x*y^3 - x^2 + y"),
])
def test_one_diagonalization_per_query(capsys, monkeypatch, argv):
    calls = count_eliminations(monkeypatch)
    obj = run_json(capsys, *argv)
    assert "discriminant" in obj
    assert ("hasse_witt" in obj) == (obj["field"]["name"] == "QQ")
    # The quartic's Gram comes from the residue form, whose sweep hands the
    # class its elimination: its degree, base-changed or not, runs none.
    assert calls == ([] if QUARTIC in argv else [obj["rank"]])


@pytest.mark.parametrize("vars_, polys, ideal, rank, runs", [
    ("x,y", "x^2 + x*y - 2*y - 2; x*y^2 - y - 4*x + 2", "x - 1; y + 1", 1, 1),
    ("x", QUARTIC, "x^2 + x + 1", 2, 2),
    ("y1,y2,y3,y4", FERMAT, "y4; y3 + 1; y2 + 1; y1", 1, 1),
], ids=["rational-point", "quadratic-point", "fermat-point"])
def test_groebner_runs_per_simple_local_query(capsys, monkeypatch, vars_,
                                              polys, ideal, rank, runs):
    # A simple rational point is its own local ideal: only the point's
    # basis is computed.  A point of larger dimension also takes I + m^2.
    bases = []
    original = poly._buchberger

    def counting(ring, gens, *rest):
        bases.append(ring.order)
        return original(ring, gens, *rest)

    def forbidden(*args):
        raise AssertionError("the degree path must not take colon ideals")

    monkeypatch.setattr(poly, "_buchberger", counting)
    for name in ("saturation", "ideal_quotient", "_intersect"):
        monkeypatch.setattr(poly, name, forbidden)
    obj = run_json(capsys, "degree", "local", "--field", "QQ", "--vars", vars_,
                   "--polys", polys, "--ideal", ideal)
    assert bases == ["grevlex"] * runs
    assert obj["rank"] == rank
    # The one cache in poly holds monomial packings: there is no basis memo.
    assert [name for name, v in vars(poly).items()
            if hasattr(v, "cache_info")] == ["_packing_of"]


@pytest.mark.parametrize("argv, gram, determinants", [
    (("global", "--field", "GF(25)", "--vars", "x,y",
      "--polys", "x^2 - y^3 + 1; 2*x*y - 3"),
     [[2, 0, 0, 0, 2], [0, 0, 0, 2, 0], [0, 0, 2, 0, 0], [0, 2, 0, 0, 0],
      [2, 0, 0, 0, 0]], 1),
    (("local", "--field", "QQ", "--vars", "x,y", "--polys",
      "x^2 + x*y - 2*y - 2; x*y^2 - y - 4*x + 2", "--ideal", "x - 1; y + 1"),
     [[-6]], 0),
    (("local", "--field", "GF(7)", "--vars", "x,y",
      "--polys", "x^2 - y^3; y^2 - x^3", "--ideal", "x; y"),
     [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 6]], 1),
    (("local", "--field", "QQ", "--vars", "x", "--polys", QUARTIC,
      "--ideal", "x^2 + x + 1"),
     [[-5, -7], [-7, -2]], 1),
    # a rational zero of multiplicity 3 with J(p) = 0
    (("local", "--field", "GF(7)", "--vars", "x,y",
      "--polys", "y - (x - 1)^2; y^2 - (x - 1)^3", "--ideal", "x - 1; y"),
     [[1, 2, 6], [2, 0, 6], [6, 6, 1]], 1),
], ids=["global-gf25", "local-simple", "local-multiple", "local-quartic",
        "local-multiple-rational"])
def test_each_degree_takes_one_bezoutian_determinant(capsys, monkeypatch,
                                                      argv, gram,
                                                      determinants):
    # The traced benchmark layer BezoutianMatrix.determinant is the path
    # every degree's Gram matrix comes from, except at a simple rational
    # zero p, whose Gram matrix is <det J(p)> and takes no Bezoutian (a
    # global degree over QQ is checked in
    # test_one_reduction_pass_per_degree).
    calls = []
    original = degrees.BezoutianMatrix.determinant

    def recording(bez, modulo=None):
        calls.append(modulo)
        return original(bez, modulo)

    monkeypatch.setattr(degrees.BezoutianMatrix, "determinant", recording)
    obj = run_json(capsys, "degree", *argv)
    assert obj["rank"] > 0
    assert obj["gram"] == [[str(c) for c in row] for row in gram]
    assert len(calls) == determinants and None not in calls


def test_simple_point_in_many_variables_is_eliminated(capsys):
    # Modulo a simple point's basis every entry of the Jacobian and of the
    # Bezoutian is a constant, so each determinant is one elimination of
    # 18 x 18 scalars, not an expansion by 18 * 2^17 minors.
    rng = random.Random(18)
    xs = [f"x{i}" for i in range(18)]
    c = [[rng.randint(1, 9) for _ in xs] for _ in xs]
    polys = "; ".join(f"{x}^2 + " + " + ".join(
        f"{a}*{y}" for a, y in zip(row, xs)) for x, row in zip(xs, c))
    start = time.perf_counter()
    obj = run_json(capsys, "degree", "local", "--field", "QQ", "--vars",
                   ",".join(xs), "--polys", polys, "--ideal", "; ".join(xs))
    assert time.perf_counter() - start < 1.0
    # the zero is simple, and the local degree is <det J(0)>
    assert obj["gram"] == [[str(sympy.Matrix(c).det())]]


def test_simple_point_basis_is_prepared_once(capsys, monkeypatch):
    # The zero-locus check, the Jacobian entries and the standard monomials
    # all read the point basis's divisors from the basis itself, which keeps
    # Buchberger's: it is never prepared again.  At a simple zero no
    # Bezoutian is built, so no doubled basis is prepared either.
    prepared = []
    original = poly._prep_divisors

    def recording(polys):
        polys = tuple(polys)
        prepared.append(polys)
        return original(polys)

    monkeypatch.setattr(poly, "_prep_divisors", recording)
    obj = run_json(capsys, "degree", "local", "--field", "QQ",
                   "--vars", "x,y", "--polys",
                   "x^2 + x*y - 2*y - 2; x*y^2 - y - 4*x + 2",
                   "--ideal", "x - 1; y + 1")
    assert obj["rank"] == 1
    ring = poly.PolyRing(QQ, ("x", "y"))
    point = poly.groebner_basis(poly.Ideal.of(ring, "x - 1", "y + 1")).basis
    assert prepared.count(point) == 0
    assert len(prepared) == 0  # no doubled basis of a Bezoutian


def test_a_power_of_a_constant_is_a_weighed_product(capsys):
    # A constant's power is weighed by its coefficients' words like any
    # product: (3^1000)^1000 alone weighs about 2 million term products, so
    # the tower stops at the parser's bound instead of squaring on and
    # failing to print.
    assert poly.MAX_PARSE_PRODUCTS == 10 ** 6
    start = time.perf_counter()
    code, out, err = run(capsys, "degree", "global", "--field", "QQ",
                         "--vars", "x", "--polys", "((3^1000)^1000)^40*x - 1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == ("error: expanding the polynomial takes more than 1000000 "
                   "term products (at position 10)\n")


def test_a_monomial_past_the_kernel_bound_exits_1(capsys):
    # x^(3 * 10^9) has degree past 2^31: refused while parsing, before a
    # Bezoutian row of 3 * 10^9 terms.
    start = time.perf_counter()
    code, out, err = run(capsys, "degree", "local", "--field", "QQ",
                         "--vars", "x,y", "--polys",
                         "(((x^1000)^1000)^1000)^3 - x; y", "--ideal", "x; y")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "2^31" in err and \
        err.count("\n") == 1


@pytest.mark.parametrize("diag, record", [
    ("1,1", "{2: 1}"), ("5,5", "{2: 1}"), ("3,3", "{2: -1, 3: -1}"),
    ("1/3,3", "{2: -1, 3: -1}"),
])
def test_hasse_witt_keys_are_fixed_by_the_class(capsys, diag, record):
    code, out, err = run(capsys, "form", "invariants", "--field", "QQ",
                         "--diag", diag)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"hasse_witt: {record}"


def test_quartic_records_only_its_class_keys(capsys):
    obj = run_json(capsys, "degree", "global", "--field", "QQ", "--vars", "x",
                   "--polys", QUARTIC)
    assert obj["hasse_witt"] == {"2": -1}


def test_form_invariants_factors_once(capsys, monkeypatch):
    calls = []
    original = fields.factorize

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(fields, "factorize", counting)
    obj = run_json(capsys, "form", "invariants", "--field", "QQ",
                   "--matrix", "[[2,3,1],[3,7,5],[1,5,11]]")
    assert obj["discriminant"] == "7" and calls == [28]


def test_square_class_too_large_to_factor_exits_1(capsys):
    semiprime = 10000000000000000051 * 10000000000000000087
    start = time.perf_counter()
    code, out, err = run(capsys, "form", "invariants", "--field", "QQ",
                         "--diag", f"{semiprime},1")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (1, "")
    assert err == "error: square class too large to factor\n"


def test_large_semiprime_class_exits_1_in_the_small_one_time(capsys):
    # Two primes of 500 bits: rho charges its squarings mod the 999-bit
    # product by their size, so it stops as soon as on a 127-bit one.
    n = _semiprime(500)
    start = time.perf_counter()
    code, out, err = run(capsys, "form", "invariants", "--field", "QQ",
                         "--diag", f"{n},1")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert err == "error: square class too large to factor\n"


def test_class_with_a_cofactor_past_the_cap_exits_1_untested(capsys,
                                                             monkeypatch):
    # The class integer of <2^4423 - 1, 1> is a 4423-bit prime: factorize
    # refuses it before Miller-Rabin, which alone takes about 3 s on it.
    tested = []
    monkeypatch.setattr(fields, "is_prime", tested.append)
    start = time.perf_counter()
    code, out, err = run(capsys, "form", "invariants", "--field", "QQ",
                         "--diag", f"{2 ** 4423 - 1},1")
    assert time.perf_counter() - start < 1.0
    assert (code, out, tested) == (1, "", [])
    assert err == "error: square class too large to factor\n"


def test_field_too_large_to_construct_exits_1(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "form", "invariants", "--field",
                         f"GF({3 ** 80})", "--diag", "1,2")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: GF(3^80) is too large: no irreducible modulus " \
        "within the search budget\n"


def test_characteristic_too_large_to_test_exits_1(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "form", "invariants", "--field",
                         f"GF({2 ** 4423 - 1})", "--diag", "1,2")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: GF(q) is too large: its characteristic would have " \
        "4423 bits, more than 3072\n"


@pytest.mark.parametrize("p, k", [(10**18 + 3, 1), (10**18 + 3, 2),
                                  (2**521 - 1, 1), (2**127 - 1, 3)])
def test_field_spec_tests_its_characteristic_at_most_twice(monkeypatch, p, k):
    tested = []
    original = fields.is_prime

    def counting(n):
        tested.append(n)
        return original(n)

    monkeypatch.setattr(fields, "is_prime", counting)
    monkeypatch.setattr(cli, "is_prime", counting)
    cli.parse_field.cache_clear()
    F = cli.parse_field(f"GF({p ** k})")
    assert (F.char, F.degree) == (p, k)
    assert tested.count(p) <= 2


def test_pretty_form_make_prints_a_class_too_large_to_factor(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "form", "make", "diagonal", "--field", "QQ",
                         "--entries", "1307896479827111861657441491,1")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert elapsed < 0.5, elapsed
    assert out.split() == ["[", "1307896479827111861657441491", "0", "]",
                           "[", "0", "1", "]"]


CLASS_QUERIES = [
    ("degree", "global", "--field", "QQ", "--vars", "x", "--polys", QUARTIC),
    ("degree", "local", "--field", "QQ", "--vars", "x", "--polys", QUARTIC,
     "--ideal", "x^2 + x + 1"),
    ("form", "make", "diagonal", "--field", "QQ", "--entries", "3,-5,7"),
]


@pytest.mark.parametrize("argv", CLASS_QUERIES)
def test_pretty_class_queries_never_classify(capsys, monkeypatch, argv):
    def forbidden(*args):
        raise AssertionError("pretty mode prints no invariants")

    monkeypatch.setattr(forms, "get_invariants", forbidden)
    monkeypatch.setattr(forms, "_square_class_invariants", forbidden)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("[ ")


@pytest.mark.parametrize("argv", CLASS_QUERIES)
def test_json_class_queries_never_render_the_matrix(capsys, monkeypatch,
                                                    argv):
    def forbidden(self):
        raise AssertionError("--json prints no pretty matrix")

    monkeypatch.setattr(forms.GWClass, "__str__", forbidden)
    assert "discriminant" in run_json(capsys, *argv)


def test_json_carries_invariants(capsys):
    obj = run_json(capsys, "form", "invariants", "--field", "QQ",
                   "--diag", "3,-3,2,5,1,-9")
    assert obj["rank"] == 6
    assert obj["signature"] == 2
    assert set(obj) >= {"discriminant", "hasse_witt"}


# -- sources and errors ------------------------------------------------------


def test_polys_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "system.txt"
    path.write_text(QUARTIC + "\n")
    obj = run_json(capsys, "degree", "global", "--field", "QQ",
                   "--vars", "x", "--polys", f"@{path}")
    assert obj["rank"] == 4

    monkeypatch.setattr("sys.stdin", io.StringIO(QUARTIC))
    obj = run_json(capsys, "degree", "global", "--field", "QQ",
                   "--vars", "x", "--polys", "-")
    assert obj["rank"] == 4


def test_a_file_name_without_at_is_inline_text(tmp_path, capsys,
                                               monkeypatch):
    # Only '@PATH' names a file: a file x in the working directory does not
    # shadow the polynomial x.
    (tmp_path / "x").write_text("x^2 - 2\n")
    monkeypatch.chdir(tmp_path)
    obj = run_json(capsys, "degree", "global", "--field", "QQ", "--vars", "x",
                   "--polys", "x")
    assert obj["gram"] == [["1"]]
    obj = run_json(capsys, "degree", "global", "--field", "QQ", "--vars", "x",
                   "--polys", "@x")
    assert obj["rank"] == 2


def test_an_unreadable_source_exits_1(tmp_path, capsys):
    message = f"error: cannot read {tmp_path}: {os.strerror(errno.EISDIR)}\n"
    for argv in (("global", "--polys", f"@{tmp_path}"),
                 ("local", "--polys", "x", "--ideal", f"@{tmp_path}")):
        code, out, err = run(capsys, "degree", *argv, "--field", "QQ",
                             "--vars", "x")
        assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("argv", [
    ("degree", "global", "--polys", "@"),
    ("degree", "local", "--polys", "@", "--ideal", "x"),
    ("degree", "local", "--polys", "x", "--ideal", "@"),
    ("basis", "local", "--polys", "x", "--ideal", "@"),
])
def test_a_bare_at_is_a_parse_error(capsys, argv):
    # '@' alone names no file: a malformed argument, not an unreadable one.
    assert run(capsys, *argv, "--field", "QQ", "--vars", "x") == (
        2, "", "parse error: no file name after '@' (at position 1)\n")


NOT_UTF8 = "not UTF-8 (invalid start byte at byte 0)"


@pytest.mark.parametrize("source", ["polys", "ideal", "stdin"])
def test_a_source_that_is_not_utf8_is_named(tmp_path, capsys, monkeypatch,
                                            source):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\xff\xfe")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"),
                                                      encoding="utf-8"))
    polys, ideal, name = {"polys": (f"@{path}", "x", path),
                          "ideal": ("x", f"@{path}", path),
                          "stdin": ("-", "x", "stdin")}[source]
    assert run(capsys, "degree", "local", "--field", "QQ", "--vars", "x",
               "--polys", polys, "--ideal", ideal) == (
        1, "", f"error: cannot read {name}: {NOT_UTF8}\n")


def test_stdin_that_is_not_utf8_is_named_under_the_posix_locale():
    # There a real stdin decodes with surrogateescape: the bytes must still
    # be refused as not UTF-8, not parsed.
    done = subprocess.run([sys.executable, "-m", "a1degrees.cli", "degree",
                           "global", "--field", "QQ", "--vars", "x",
                           "--polys", "-"],
                          input=b"\xff\xfe", capture_output=True,
                          env=_cli_env(LC_ALL="C"), timeout=60)
    assert (done.returncode, done.stdout, done.stderr.decode()) == (
        1, b"", f"error: cannot read stdin: {NOT_UTF8}\n")


def _closed_stdout(argv, first_byte):
    """Exit code and stderr of a fresh CLI, its stdout block-buffered as in
    a shell pipe, whose reader takes the first byte and closes the pipe, as
    `| head -c 1` does, or closed it before anything was written."""
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "a1degrees.cli", *argv]
    if first_byte:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(1)
        proc.stdout.close()
        proc.stdout = None  # communicate reads stderr alone
    else:
        read, write = os.pipe()
        os.close(read)
        proc = subprocess.Popen(command, stdout=write, stderr=subprocess.PIPE,
                                env=env)
        os.close(write)
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


HYPERBOLIC = ("form", "make", "hyperbolic", "--field", "QQ", "--rank")
SMALL = ("form", "invariants", "--field", "QQ", "--diag", "1,2")


@pytest.mark.parametrize("argv, first_byte, code", [
    ((*HYPERBOLIC, "256"), True, 1),
    ((*HYPERBOLIC, "256", "--json"), True, 1),
    (SMALL, True, 0),
    (SMALL, False, 1),
], ids=["pretty", "json", "small output", "closed first"])
def test_a_closed_stdout_exits_quietly(argv, first_byte, code):
    # Output past the pipe's capacity (64 KiB on Linux; these are 257 and
    # 707 KiB) meets the closed end: exit 1 with nothing on stderr.  So
    # does a small output whose reader closed first, which is still in the
    # buffer for the interpreter's exit flush.  A small output written whole
    # before the reader closed exits 0.
    assert _closed_stdout(argv, first_byte) == (code, b"")


def test_a_unit_ideal_point_exits_1(capsys):
    for command in ("degree", "basis"):
        for field, point in (("QQ", "1"), ("QQ", "x + 1 - x"),
                             ("GF(5)", "5*x + 1")):
            code, out, err = run(capsys, command, "local", "--field", field,
                                 "--vars", "x,y", "--polys", "x^2; y",
                                 "--ideal", point, "--json")
            assert (code, out) == (1, "")
            assert err == "error: the point's ideal is the unit ideal\n"
    # A system with no zeros has a global degree, of rank 0.
    obj = run_json(capsys, "degree", "global", "--field", "QQ", "--vars", "x",
                   "--polys", "x^0")
    assert obj["rank"] == 0 and obj["gram"] == []


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "degree", "global", "--field", "QQ",
                       "--vars", "x", "--polys", "2x + 1")
    assert code == 2
    assert "parse error" in err and "position" in err

    code, _, err = run(capsys, "form", "diagonalize", "--field", "QQ",
                       "--matrix", "[[1,2],[2")
    assert code == 2

    code, _, err = run(capsys, "form", "make", "diagonal", "--field", "QQ",
                       "--entries", "1.5,2")
    assert code == 2

    code, _, err = run(capsys, "form", "make", "diagonal", "--field", "QQ",
                       "--entries", "1/0")
    assert code == 2 and "zero denominator" in err and "position" in err


@pytest.mark.parametrize("argv, message", [
    (("form", "diagonalize", "--matrix", "[[1,0],[0,1]] x"),
     "unexpected trailing input (at position 14)"),
    (("form", "diagonalize", "--matrix", "[[1]]", "--diag", "1"),
     "provide exactly one of --matrix or --diag (at position 0)"),
    (("form", "invariants"),
     "provide exactly one of --matrix or --diag (at position 0)"),
    (("form", "make", "hyperbolic"),
     "make hyperbolic requires --rank (at position 0)"),
    (("form", "make", "pfister"),
     "make pfister requires --entries (at position 0)"),
    (("form", "invariants", "--matrix", "[1,2]"),
     "expected '[' (at position 1)"),
    (("form", "invariants", "--matrix", "[[1,2],]"),
     "expected '[' (at position 7)"),
    (("form", "invariants", "--matrix", "[[1,2] [2,3]]"),
     "expected ']' (at position 7)"),
    (("form", "invariants", "--matrix", "[[1,2],[2,3]"),
     "expected ']' (at position 12)"),
    (("form", "invariants", "--matrix", "[[1,2]x,[2,3]]"),
     "expected ']' (at position 6)"),
    (("form", "invariants", "--matrix", "[[1,2],[2"),
     "expected ']' (at position 9)"),
    (("form", "invariants", "--matrix", "[[1,2],[2,3]]]"),
     "unexpected trailing input (at position 13)"),
])
def test_refused_form_arguments_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--field", "QQ")
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


@pytest.mark.parametrize("argv, offset", [
    (("form", "make", "diagonal", "--entries", "1, 2,x"), 5),
    (("form", "make", "diagonal", "--entries", "1,1/0"), 2),
    (("form", "make", "pfister", "--entries", "2,  3/0"), 4),
    (("form", "invariants", "--diag", "3,-1,  y"), 7),
    (("form", "decompose", "--diag", "1.5"), 0),
    (("form", "invariants", "--matrix", "[[1, 2],[ 2,x]]"), 12),
    (("form", "invariants", "--matrix", "[ [1,2],\n [2, 1/0]]"), 14),
    (("form", "invariants", "--matrix", "[[1,,2]]"), 4),
    (("form", "invariants", "--matrix", "[[]]"), 2),
    (("form", "invariants", "--matrix", "[[[1]]]"), 2),
    (("form", "diagonalize", "--matrix", "  [[3,\t1],\r\n [1, 0 1]]"), 15),
    (("form", "isomorphic", "1,1", " [[1,0],[0,x]]"), 10),
])
def test_entry_parse_errors_report_character_offsets(capsys, argv, offset):
    code, _, err = run(capsys, *argv[:-2], "--field", "QQ", *argv[-2:])
    assert code == 2
    assert err.rstrip().endswith(f"(at position {offset})")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="the interpreter has no int digit limit")
@pytest.mark.parametrize("argv, offset", [
    (("form", "invariants", "--field", "QQ", "--diag", "1,{}"), 2),
    (("form", "invariants", "--field", "QQ", "--diag", "3, -1/{}"), 3),
    (("form", "invariants", "--field", "QQ", "--matrix", "[[1,2],[2,{}]]"),
     10),
    (("form", "make", "diagonal", "--field", "QQ", "--entries", "{},1"), 0),
    (("form", "make", "pfister", "--field", "QQ", "--entries", "2,  {}"), 4),
    (("form", "isomorphic", "--field", "QQ", "1,{}", "1,1"), 2),
    (("form", "isomorphic", "--field", "QQ", "1,1", " [[1,0],[0,{}]]"), 10),
    (("symbol", "hilbert", "2", "{}", "3"), 0),
    (("form", "invariants", "--field", "GF({})", "--diag", "1,2"), 3),
], ids=["diag", "diag fraction", "matrix", "make diagonal", "make pfister",
        "isomorphic diag", "isomorphic matrix", "hilbert", "field"])
def test_an_integer_literal_past_the_digit_limit_exits_2(capsys, argv,
                                                         offset):
    # As in a polynomial, the literal is a parse error at its entry's
    # offset (at 3 in GF(q), like the field's other errors), not a domain
    # error from the interpreter's int conversion.
    long = "1" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run(capsys, *(a.format(long) for a in argv))
    assert (code, out, err) == (
        2, "", f"parse error: integer literal too long (at position "
               f"{offset})\n")


@pytest.mark.parametrize("vars_, polys, name, offset", [
    ("1x", "x", "1x", 0),
    ("x y", "x", "x y", 0),
    ("x, y-1", "x; y", "y-1", 3),
    ("é", "x", "é", 0),
    ("x,2", "x; x", "2", 2),
])
def test_bad_variable_names_exit_2(capsys, vars_, polys, name, offset):
    for command in (("degree", "global"), ("degree", "local"),
                    ("basis", "local")):
        ideal = ("--ideal", "x") if command[1] == "local" else ()
        code, out, err = run(capsys, *command, "--field", "QQ", "--vars",
                             vars_, "--polys", polys, *ideal)
        assert (code, out, err) == (
            2, "", f"parse error: bad variable name {name!r} "
                   f"(at position {offset})\n")
    # The ring itself takes any name: an elimination ring names its
    # variable '@t'.
    assert poly.PolyRing(QQ, ("@t", name)).variables == ("@t", name)


@pytest.mark.parametrize("vars_, error", [
    ("x,x", "repeated variable name 'x' (at position 2)"),
    ("x, x", "repeated variable name 'x' (at position 3)"),
    ("y,x, y", "repeated variable name 'y' (at position 5)"),
    ("", "no variable names (at position 0)"),
    (" , ", "no variable names (at position 0)"),
    ("x,,y", None),  # an empty item is skipped
], ids=["x,x", "x, x", "y,x, y", "empty", "blank", "x,,y"])
def test_repeated_or_missing_variable_names_exit_2(capsys, vars_, error):
    # A repeated or missing name is a malformed --vars, refused with its
    # offset as a bad name is, not by the ring with exit 1.
    for command in (("degree", "global"), ("degree", "local"),
                    ("basis", "local")):
        ideal = ("--ideal", "x; y") if command[1] == "local" else ()
        code, out, err = run(capsys, *command, "--field", "QQ", "--vars",
                             vars_, "--polys", "x; y", *ideal)
        if error is None:
            assert (code, err) == (0, "") and out
        else:
            assert (code, out, err) == (2, "", f"parse error: {error}\n")


@pytest.mark.parametrize("entry", ["x", "1/0"])
def test_rational_entry_parse_rejects_bad_text(entry):
    with pytest.raises(ParseError):
        cli.gwclass_from_json({"field": {"name": "QQ"}, "gram": [[entry]]})


def test_exponent_cap_is_a_parse_error(capsys):
    code, out, err = run(capsys, "degree", "global", "--field", "QQ",
                         "--vars", "x,y", "--polys",
                         f"x^2 - y; y^{poly.MAX_EXPONENT + 1} + x")
    assert (code, out) == (2, "")
    assert err == (f"parse error: exponent {poly.MAX_EXPONENT + 1} exceeds "
                   f"{poly.MAX_EXPONENT} (at position 2)\n")


def test_expansion_cap_is_an_error(capsys):
    # Bezout number 64 passes its cap; expanding the power does not.
    code, out, err = run(capsys, "degree", "global", "--field", "QQ",
                         "--vars", "x,y,z", "--polys", "(x+y+z+1)^64; y; z")
    assert (code, out) == (1, "")
    assert err == ("error: expanding the polynomial takes more than "
                   f"{poly.MAX_PARSE_PRODUCTS} term products (at position 10)\n")


def test_expansion_cap_weighs_coefficients(capsys):
    # degree local has no Bezout cap: the parser's bound is all there is.
    start = time.perf_counter()
    code, out, err = run(capsys, "degree", "local", "--field", "QQ", "--vars",
                         "x", "--polys", "(1234567890123456789*x+1)^1000",
                         "--ideal", "x")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert err.startswith("error: expanding the polynomial takes more than")


@pytest.mark.parametrize("names, polys, bezout", [
    ("x", f"x^{degrees.MAX_BEZOUT + 1} - 1", degrees.MAX_BEZOUT + 1),
    ("x,y", "x^12 - y; y^11 + x", 132),
])
def test_bezout_cap_exits_1_before_any_groebner_basis(capsys, monkeypatch,
                                                      names, polys, bezout):
    calls = []
    monkeypatch.setattr(degrees, "groebner_basis", calls.append)
    start = time.perf_counter()
    code, out, err = run(capsys, "degree", "global", "--field", "GF(7)",
                         "--vars", names, "--polys", polys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, calls) == (1, "", [])
    assert err == f"error: Bezout number {bezout} exceeds 128\n"


def test_system_at_the_bezout_cap_builds(capsys):
    assert degrees.MAX_BEZOUT == 128
    obj = run_json(capsys, "degree", "global", "--field", "QQ", "--vars", "x",
                   "--polys", "x^128 - 3*x + 1")
    assert len(obj["gram"]) == 128


def test_local_degree_reduces_the_entries_before_their_determinant(capsys):
    # The (1, 1) entry alone has 1,000 terms; multiplied out before the
    # reduction, the expansion forms about 10^6 term products.
    start = time.perf_counter()
    obj = run_json(capsys, "degree", "local", "--field", "QQ", "--vars", "x,y",
                   "--polys", "x^1000 + y^2; y^1000 + x^2", "--ideal", "x; y")
    assert time.perf_counter() - start < 1.0
    assert obj["rank"] == 4


@pytest.mark.parametrize("command", ["degree", "basis"])
@pytest.mark.parametrize("polys, terms", [
    ("(x^1000)^1000 - x; y", 1000002),
    ("((x^1000)^1000)^20 - x; y", 20000002),
])
def test_local_bezoutian_cap_exits_1_before_any_groebner_basis(
        capsys, monkeypatch, polys, terms, command):
    # Local degrees and local bases pass the one check, in _local_ideal.
    assert degrees.MAX_BEZOUTIAN_TERMS == 10 ** 5
    calls = []
    monkeypatch.setattr(degrees, "groebner_basis", calls.append)
    start = time.perf_counter()
    code, out, err = run(capsys, command, "local", "--field", "QQ",
                         "--vars", "x,y", "--polys", polys, "--ideal", "x; y")
    assert time.perf_counter() - start < 1.0
    assert (code, out, calls) == (1, "", [])
    assert err == f"error: the Bezoutian has {terms} terms, more than 100000\n"


def test_local_basis_past_the_bezoutian_cap_exits_1(capsys):
    # Away from the origin the point's normal form would reduce x^(5 * 10^6)
    # by x - 1 one degree at a time.
    start = time.perf_counter()
    code, out, err = run(capsys, "basis", "local", "--field", "QQ",
                         "--vars", "x,y", "--polys", "((x^1000)^1000)^5 - 1; y",
                         "--ideal", "x - 1; y")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: the Bezoutian has 5000001 terms, more than 100000\n"


def test_local_bezoutian_under_the_cap_builds(capsys, monkeypatch):
    obj = run_json(capsys, "degree", "local", "--field", "QQ", "--vars", "x,y",
                   "--polys", "(x^1000)^40 - x; y", "--ideal", "x; y")
    assert obj["gram"] == [["-1"]]
    # A double zero builds its Bezoutian: 99,003 terms, under the cap.
    built = []
    original = degrees.bezoutian_matrix

    def counting(system):
        built.append(system)
        return original(system)

    monkeypatch.setattr(degrees, "bezoutian_matrix", counting)
    obj = run_json(capsys, "degree", "local", "--field", "QQ", "--vars", "x,y",
                   "--polys", "(x^1000)^99 - x^2; y", "--ideal", "x; y")
    assert obj["gram"] == [["0", "-1"], ["-1", "0"]]
    assert len(built) == 1
    code, out, err = run(capsys, "basis", "local", "--field", "QQ",
                         "--vars", "x,y", "--polys", "(x^1000)^99 - 1; y",
                         "--ideal", "x - 1; y")
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize("nest", [
    lambda k: "(" * k + "x" + ")" * k + " - 1",
    lambda k: "x + " + "-" * k + "x - 1",
    lambda k: "(" * (k - k // 2) + "x + " + "-" * (k // 2) + "x" +
    ")" * (k - k // 2) + " - 1",
], ids=["parentheses", "signs", "both"])
def test_deep_nesting_is_a_parse_error(capsys, nest):
    # A sign that opens an expression does not nest: "-(-(x))" is 2 levels.
    obj = run_json(capsys, "degree", "global", "--field", "QQ", "--vars", "x",
                   "--polys", nest(100))
    assert obj["rank"] == 1
    start = time.perf_counter()
    code, out, err = run(capsys, "degree", "global", "--field", "QQ",
                         "--vars", "x", "--polys", nest(101))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("parse error: nesting deeper than 100 levels") and \
        err.count("\n") == 1


def test_deep_nesting_in_a_gf_entry_is_a_parse_error():
    field = {"name": "GF(9)"}
    entry = "(" * 100 + "t" + ")" * 100
    assert cli.gwclass_from_json({"field": field, "gram": [[entry]]}).rank == 1
    with pytest.raises(ParseError, match="nesting deeper than 100"):
        cli.gwclass_from_json({"field": field, "gram": [["(" + entry + ")"]]})


@pytest.mark.parametrize("command", ["degree", "basis"])
def test_local_rank_cap_exits_1_before_any_bezoutian(capsys, monkeypatch,
                                                     command):
    # x^17; y^17 has rank 289 at the origin; the loop stops past 256.
    calls = []
    monkeypatch.setattr(degrees, "bezoutian_matrix", calls.append)
    start = time.perf_counter()
    code, out, err = run(capsys, command, "local", "--field", "QQ", "--vars",
                         "x,y", "--polys", "x^17; y^17", "--ideal", "x; y")
    assert time.perf_counter() - start < 1.0
    assert (code, out, calls) == (1, "", [])
    assert err == "error: local rank is at least 261, more than 256\n"


def test_local_degree_at_the_rank_cap_builds(capsys):
    assert forms.MAX_MADE_RANK == 256
    obj = run_json(capsys, "degree", "local", "--field", "QQ", "--vars", "x,y",
                   "--polys", "x^16; y^16", "--ideal", "x; y")
    assert len(obj["gram"]) == obj["rank"] == 256


@pytest.mark.parametrize("ideal", ["x; y", "x^300; y"])
def test_non_isolated_zeros_below_the_rank_cap_keep_their_message(capsys,
                                                                  ideal):
    # Bezout number 4: the isolation test comes first, even where the
    # dimension (300 for the second ideal) is past the rank cap.
    code, out, err = run(capsys, "degree", "local", "--field", "QQ", "--vars",
                         "x,y", "--polys", "x*y; x*y", "--ideal", ideal)
    assert (code, out, err) == (1, "", "error: zeros are not isolated\n")


@pytest.mark.parametrize("field, matrix", [
    ("QQ", "[[1,3],[3,7]]"),
    ("QQ", "[[0,1],[1,0]]"),
    ("QQ", "[[0,2,1],[2,6,0],[1,0,-3/4]]"),
    ("GF(9)", "[[0,2,1],[2,0,1],[1,1,0]]"),
])
def test_form_diagonalize_prints_the_cached_diagonal(capsys, monkeypatch,
                                                     field, matrix):
    beta = forms.make_gw_class(cli.parse_matrix(matrix), cli.parse_field(field))
    d, _ = forms.diagonalize(beta)
    expected = [str(d) + "\n", json.dumps(cli.gwclass_to_json(d), indent=2) + "\n"]

    def forbidden(*args):
        raise AssertionError("form diagonalize must not rebuild the basis")

    monkeypatch.setattr(forms, "diagonalize", forbidden)
    got = [run(capsys, "form", "diagonalize", "--field", field, "--matrix",
               matrix, *json_flag) for json_flag in ((), ("--json",))]
    assert got == [(0, out, "") for out in expected]


def test_form_diagonalize_factors_each_pivot_once(capsys, monkeypatch):
    calls = []
    original = fields.factorize

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(fields, "factorize", counting)
    code, _, _ = run(capsys, "form", "diagonalize", "--field", "QQ",
                     "--matrix", "[[2,3,1],[3,7,5],[1,5,11]]")
    assert code == 0 and calls == [2, 10, 140]
    # The record factors L * num(det) once more, whatever ran first.
    calls.clear()
    obj = run_json(capsys, "form", "diagonalize", "--field", "QQ",
                   "--matrix", "[[2,3,1],[3,7,5],[1,5,11]]")
    assert obj["rank"] == 3 and calls == [2, 10, 140, 28]


def test_diagonalize_and_invariants_print_one_record(capsys):
    # Over the CLI deck's QQ payloads, the record printed after the
    # squarefree diagonal is the one printed without it.
    payloads = [(flag, argv[argv.index(flag) + 1]) for argv in _tool().CLI_DECK
                if argv[0] == "form" and argv[2:4] == ["--field", "QQ"]
                for flag in ("--matrix", "--diag") if flag in argv]
    assert len(payloads) >= 8
    for flag, payload in payloads:
        got = []
        for command in ("diagonalize", "invariants"):
            code, out, err = run(capsys, "form", command, "--field", "QQ",
                                 flag, payload, "--json")
            got.append(json.loads(out)["hasse_witt"] if code == 0 else err)
        assert got[0] == got[1], payload


def test_form_decompose_tests_a_record_prime_twice(capsys, monkeypatch):
    # Once in each factorization, of the class and of its witness, the
    # realized anisotropic part plus nH (the part itself when n = 0); the
    # Witt layer reads the record and tests none of its primes again.
    prime, tested = 2 ** 521 - 1, []
    original = fields.is_prime

    def counting(n):
        tested.append(n)
        return original(n)

    for module in (fields, forms, witt, cli):
        monkeypatch.setattr(module, "is_prime", counting, raising=False)
    for diag, index in ((f"{prime},1", 0), (f"{prime},1,1,-1", 1)):
        tested.clear()
        obj = run_json(capsys, "form", "decompose", "--field", "QQ", "--diag",
                       diag)
        assert obj["witt_index"] == index
        assert tested.count(prime) == 2


def test_form_anisotropic_part_tests_a_record_prime_twice(capsys,
                                                         monkeypatch):
    # As for `form decompose`: once in the class's factorization and once
    # in the witness's.  The printed part's record is the witness's with
    # its planes split off, and needs no factorization of its own.
    prime, tested = 2 ** 521 - 1, []
    original = fields.is_prime

    def counting(n):
        tested.append(n)
        return original(n)

    for module in (fields, forms, witt, cli):
        monkeypatch.setattr(module, "is_prime", counting, raising=False)
    for diag in (f"{prime},1", f"{prime},1,1,-1"):
        tested.clear()
        obj = run_json(capsys, "form", "anisotropic-part", "--field", "QQ",
                       "--diag", diag)
        assert obj["gram"] == [["1", "0"], ["0", str(prime)]]
        assert tested.count(prime) == 2


def test_anisotropic_part_record_is_a_fresh_factorization():
    # The derived record equals the one a fresh class of the part's Gram
    # factors, over the decompose workload's forms.
    rank = 0
    for op in _tool().workloads.make_ops("decompose_qq", 7, 200):
        beta = cli.payload_class(cli._shared_parser().parse_args(op.argv))
        part = witt.anisotropic_part(beta)
        if part.rank:
            fresh = make_gw_class(part.gram, QQ)
            assert part._invariants == fresh._invariants, op.argv
            rank = max(rank, beta.rank - part.rank)
    assert rank >= 4  # parts with two planes split off and more


@pytest.mark.parametrize("field, diag", [
    ("QQ", "1,2,-3"), ("QQ", "3,-3,2,5,1,-9"), ("QQ", "1,1,1"),
    ("GF(7)", "1,3"), ("RR", "1,-1,2"), ("CC", "2,3"),
])
def test_form_decompose_measures_isotropy_once(capsys, monkeypatch, field,
                                               diag):
    # anisotropic_part reads the kernel from witt._kernel, the one place
    # every isotropy answer of the command comes from
    calls = []
    original = witt._kernel

    def counting(beta):
        calls.append(beta.rank)
        return original(beta)

    monkeypatch.setattr(witt, "_kernel", counting)
    obj = run_json(capsys, "form", "decompose", "--field", field,
                   "--diag", diag)
    assert calls == [obj["rank"]]
    assert obj["isotropic"] == (obj["witt_index"] > 0)


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "form", "diagonalize", "--field", "QQ",
                       "--matrix", "[[1,1],[1,1]]")
    assert code == 1 and "degenerate form" in err

    code, _, err = run(capsys, "degree", "local", "--field", "QQ",
                       "--vars", "x", "--polys", QUARTIC, "--ideal", "x - 1")
    assert code == 1 and "point not in zero locus" in err

    code, _, err = run(capsys, "degree", "global", "--field", "RR",
                       "--vars", "x", "--polys", "x^2")
    assert code == 1 and "base-change" in err

    for command in ("degree", "basis"):
        code, out, err = run(capsys, command, "local", "--field", "QQ",
                             "--vars", "x,y", "--polys", "x*y; x*y",
                             "--ideal", "x; y", "--json")
        assert code == 1 and "zeros are not isolated" in err and not out

    obj = run_json(capsys, "degree", "local", "--field", "QQ", "--vars", "x,y",
                   "--polys", "x^2 - x; x*y", "--ideal", "x - 1; y")
    assert obj["gram"] == [["1"]]


def test_oversized_made_forms_exit_1_unbuilt(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("an oversized form must not be built")

    monkeypatch.setattr(forms, "make_diagonal_form", forbidden)
    slots = ",".join(str(a) for a in range(2, 32))
    for argv in (("pfister", "--entries", slots),
                 ("hyperbolic", "--rank", "1000000000"),
                 ("diagonal", "--entries", ",".join(["1"] * 257))):
        code, out, err = run(capsys, "form", "make", *argv, "--field", "QQ")
        assert code == 1 and err.startswith("error: ") and not out
    assert err == "error: diagonal rank 257 exceeds 256\n"
    monkeypatch.undo()
    obj = run_json(capsys, "form", "make", "diagonal", "--field", "QQ",
                   "--entries", ",".join(["1"] * 256))
    assert obj["rank"] == forms.MAX_MADE_RANK


def test_oversized_diagonal_payloads_exit_1_unbuilt(capsys, monkeypatch):
    # --diag, and a diagonal list of `form isomorphic`, are refused past
    # their own bound before any Gram matrix is built.
    def forbidden(*args):
        raise AssertionError("an oversized form must not be built")

    bound = cli.MAX_DIAG_ENTRIES
    assert bound == 512
    monkeypatch.setattr(forms, "make_diagonal_form", forbidden)
    monkeypatch.setattr(forms, "make_gw_class", forbidden)
    over = ",".join(["1"] * (bound + 1))
    queries = [("form", name, "--field", "QQ", "--diag", over) for name in
               ("diagonalize", "invariants", "decompose", "anisotropic-part")]
    queries += [("form", "isomorphic", "--field", "GF(7)", over, "1,1"),
                ("form", "isomorphic", "--field", "QQ", over, "[[1]]")]
    for argv in queries:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: diagonal rank 513 "
                                           "exceeds 512\n"), argv
    monkeypatch.undo()
    obj = run_json(capsys, "form", "invariants", "--field", "QQ", "--diag",
                   ",".join(["1", "-1"] * (bound // 2)))
    assert obj["rank"] == bound and obj["signature"] == 0


def test_base_change_flag(capsys):
    obj = run_json(capsys, "degree", "global", "--field", "QQ", "--vars", "x",
                   "--polys", QUARTIC, "--base-change", "RR")
    assert obj["field"]["name"] == "RR"
    assert obj["signature"] == 0


NO_ZEROS = ("--vars", "x,y", "--polys", "x*y - 1; x")


@pytest.mark.parametrize("field, extra, expected", [
    ("QQ", (), {"field": {"name": "QQ"}, "gram": [], "rank": 0,
                "signature": 0, "hasse_witt": {"2": 1}}),
    ("GF(7)", (), {"field": {"name": "GF(7)", "modulus": [0, 1]}, "gram": [],
                   "rank": 0}),
    ("QQ", ("--base-change", "RR"), {"field": {"name": "RR"}, "gram": [],
                                     "rank": 0, "signature": 0}),
])
def test_rank_zero_degree(capsys, field, extra, expected):
    argv = ("degree", "global", "--field", field, *NO_ZEROS, *extra)
    assert run_json(capsys, *argv) == expected
    code, out, err = run(capsys, *argv)
    name = expected["field"]["name"]
    assert (code, out, err) == (0, f"<empty form over {name}>\nrank: 0\n", "")


def test_basis_local_has_no_base_change_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["basis", "local", "--field", "QQ", "--vars", "x", "--polys",
                  "x^2", "--ideal", "x", "--base-change", "RR"])
    assert info.value.code == 2
    assert "unrecognized arguments: --base-change RR" in \
        capsys.readouterr().err


# -- one parser per process --------------------------------------------------


SESSION = [
    ("form", "decompose", "--field", "QQ", "--diag", "1,2,-3", "--json"),
    ("form", "decompose", "--field", "QQ", "--bogus", "1"),
    ("form", "decompose", "--field", "QQ", "--diag", "1,x"),
    ("form", "decompose", "--field", "QQ", "--diag", "1,0"),
    ("form", "decompose", "--field", "QQ", "--diag", "1,2,-3", "--json"),
    ("form",),
    ("form", "decompose", "--field", "QQ", "--diag", "1,2,-3", "--json"),
    ("form", "bogus"),
    ("form", "decompose", "--field", "QQ", "--diag", "1,2,-3", "--json"),
    ("form", "decompose", "--field", "QQ", "--diag", "1,2", "extra"),
    ("form", "decompose", "--field", "QQ", "--diag", "1,2,-3", "--json"),
]


def _cli_env(**extra):
    """The environment of a fresh `python -m a1degrees.cli` on this src."""
    src = Path(cli.__file__).resolve().parent.parent
    return dict(os.environ, COLUMNS="80", **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [
                    str(src), os.environ.get("PYTHONPATH")])))


def _fresh_process(argv):
    done = subprocess.run([sys.executable, "-m", "a1degrees.cli", *argv],
                          capture_output=True, text=True, env=_cli_env(),
                          timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_repeated_main_calls_share_one_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    try:
        for argv in SESSION:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == _fresh_process(argv)
    finally:
        cli._shared_parser.cache_clear()
    assert len(built) == 1
    assert isinstance(cli.build_parser(), argparse.ArgumentParser)


SYSTEM = ("--field", "QQ", "--vars", "x", "--polys", "x^2 - 1")
DECOMPOSE = ("form", "decompose", "--field", "QQ", "--diag", "1,2")


@pytest.mark.parametrize("argv", [
    (), ("-h",), ("form", "-h"), ("form", "decompose", "-h"),
    ("degree", "global", "--help"), ("-h", "form", "decompose"),
    ("bogus",), ("form", "bogus"), ("form",),
    ("form", "decompose", "--diag", "1,2"),
    (*DECOMPOSE, "--bogus", "1"), (*DECOMPOSE, "extra"),
    ("basis", "local", *SYSTEM, "--ideal", "x - 1", "--base-change", "RR"),
    ("form", "decompose", "--fie", "QQ", "--diag", "1,2", "--js"),
    ("form", "decompose", "--", "--field", "QQ", "--diag", "1,2"),
    (*DECOMPOSE, "--"),
    ("symbol", "hilbert", "-1", "-1", "2", "--json"),
    ("form", "make", "bogus"),
    ("degree", "global", *SYSTEM, "--base-change", "XX"),
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_leaf_dispatch_matches_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width

    def outcome():
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    dispatched = outcome()
    monkeypatch.setattr(cli._shared_parser(), "leaves", {})
    assert dispatched == outcome()


def test_a_leaf_query_skips_the_full_parser(capsys, monkeypatch):
    def forbidden(argv):
        raise AssertionError(f"full parser called on {argv}")

    monkeypatch.setattr(cli._shared_parser(), "parse_args", forbidden)
    assert run(capsys, *DECOMPOSE) == (0, "<1> + <2>\n", "")


# -- field specs -------------------------------------------------------------


def test_parse_field_needs_no_factoring(monkeypatch):
    def forbidden(n):
        raise AssertionError("parse_field must not factor the order")

    monkeypatch.setattr(fields, "factorize", forbidden)
    cli.parse_field.cache_clear()
    p = 10**18 + 3
    F = cli.parse_field(f"GF({p * p})")
    assert (F.char, F.degree, F.modulus) == (p, 2, (1, 0, 1))
    assert (cli.parse_field("GF(27)").char, cli.parse_field("GF(27)").degree) \
        == (3, 3)
    assert cli.parse_field("GF(27)") is cli.parse_field("GF(27)")
    assert cli.parse_field(f"GF({p})").degree == 1
    for q in (0, 1, 12, 3 * p, p * p * 5):
        with pytest.raises(ParseError, match="order must be a prime power"):
            cli.parse_field(f"GF({q})")
    with pytest.raises(ValueError, match="characteristic 2"):
        cli.parse_field("GF(8)")
    assert cli.parse_field.cache_info().maxsize is not None


def test_zero_field_order_is_a_parse_error(capsys):
    code, out, err = run(capsys, "form", "make", "diagonal", "--field", "GF(0)",
                         "--entries", "1,2")
    assert (code, out) == (2, "")
    assert err == "parse error: GF(0): order must be a prime power (at position 3)\n"


def test_huge_prime_field_builds_lazily(capsys):
    obj = run_json(capsys, "form", "make", "diagonal", "--field", "GF(10000019)",
                   "--entries", "1,2")
    assert obj["field"] == {"name": "GF(10000019)", "modulus": [0, 1]}


def test_one_determinant_per_gf_degree_query(capsys, monkeypatch):
    calls = count_eliminations(monkeypatch)
    obj = run_json(capsys, "degree", "global", "--field", "GF(27)",
                   "--vars", "x1,x2,x3,x4", "--polys", GRASSMANNIAN)
    assert obj["rank"] == 6
    assert calls == [6]


def test_a_residue_path_degree_runs_no_elimination(capsys, monkeypatch):
    # The residue Gauss-Jordan hands the class its determinant: for x^2 - 2
    # over GF(7), c = 1 and G' = [[0, 1], [1, 0]], so det = c^2 / det G'
    # = -1 = 6, a nonsquare mod 7, whose class prints as 3.
    calls = count_eliminations(monkeypatch)
    obj = run_json(capsys, "degree", "global", "--field", "GF(7)",
                   "--vars", "x", "--polys", "x^2 - 2")
    assert (obj["rank"], obj["discriminant"]) == (2, "3")
    assert calls == []


def test_sixteen_variable_linear_degree_is_fast(capsys):
    # Every row of a linear system's Bezoutian is constant, so the
    # determinant is one elimination: no expansion over 2^16 column sets.
    rng = random.Random(16)
    n = 16
    names = [f"x{i}" for i in range(n)]
    coeffs = [[rng.randint(-3, 3) if rng.random() < 0.6 else 0
               for _ in range(n)] for _ in range(n)]
    for i in range(n):
        coeffs[i][i] = rng.randint(1, 4)
    polys = "; ".join(" + ".join(f"{c}*{v}" for c, v in zip(row, names)) +
                      f" + {rng.randint(-5, 5)}" for row in coeffs)
    start = time.perf_counter()
    obj = run_json(capsys, "degree", "global", "--field", "QQ",
                   "--vars", ",".join(names), "--polys", polys)
    elapsed = time.perf_counter() - start
    assert obj["gram"] == [[str(sympy.Matrix(coeffs).det())]]
    assert elapsed < 1.0, elapsed


# Printed by the coefficient-tuple arithmetic that preceded the field tables;
# table arithmetic must print the same.
GF_PINNED = [
    (("form", "invariants", "--field", "GF(27)",
      "--matrix", "[[1,2,0],[2,1,1],[0,1,2]]"),
     '{"field": {"name": "GF(27)", "modulus": [1, 0, 2, 1]}, "gram": '
     '[["1", "2", "0"], ["2", "1", "1"], ["0", "1", "2"]], "rank": 3, '
     '"discriminant": "2*t^2"}'),
    (("form", "invariants", "--field", "GF(121)",
      "--matrix", "[[1,3,5],[3,7,0],[5,0,2]]"),
     '{"field": {"name": "GF(121)", "modulus": [1, 0, 1]}, "gram": '
     '[["1", "3", "5"], ["3", "7", "0"], ["5", "0", "2"]], "rank": 3, '
     '"discriminant": "1"}'),
    (("degree", "global", "--field", "GF(27)", "--vars", "x1,x2,x3,x4",
      "--polys", GRASSMANNIAN),
     '{"field": {"name": "GF(27)", "modulus": [1, 0, 2, 1]}, "gram": '
     '[["0", "0", "0", "0", "0", "1"], ["0", "1", "0", "0", "0", "0"], '
     '["0", "0", "0", "2", "0", "0"], ["0", "0", "2", "0", "0", "0"], '
     '["0", "0", "0", "0", "1", "0"], ["1", "0", "0", "0", "0", "0"]], '
     '"rank": 6, "discriminant": "1"}'),
    (("degree", "global", "--field", "GF(121)", "--vars", "x,y",
      "--polys", "x^2+3*x*y-5;y^2-2*x+7"),
     '{"field": {"name": "GF(121)", "modulus": [1, 0, 1]}, "gram": '
     '[["1", "0", "6", "1"], ["0", "3", "1", "0"], ["6", "1", "0", "0"], '
     '["1", "0", "0", "0"]], "rank": 4, "discriminant": "1"}'),
]


@pytest.mark.parametrize("argv,expected", GF_PINNED)
def test_gf_outputs_are_pinned(capsys, argv, expected):
    assert json.dumps(run_json(capsys, *argv)) == expected
