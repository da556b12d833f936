from __future__ import annotations

import argparse
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


def test_gf_entries_parse_back_from_their_rendering():
    for q in (9, 27):
        field = cli.parse_field(f"GF({q})")
        for a in field.elements():
            assert cli._entry_from_str(str(a), field) == a


@pytest.mark.parametrize("entry", ["t^2", "t^3", "2*x", "t^", "1 +", "t*t", ""])
def test_gf_entry_parse_rejects_bad_terms(entry):
    with pytest.raises(ParseError):
        cli.gwclass_from_json({"field": {"name": "GF(9)"}, "gram": [[entry]]})


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
])
def test_one_diagonalization_per_query(capsys, monkeypatch, argv):
    calls = count_eliminations(monkeypatch)
    obj = run_json(capsys, *argv)
    assert "hasse_witt" in obj
    assert calls == [obj["rank"]]


@pytest.mark.parametrize("vars_, polys, ideal, rank", [
    ("x,y", "x^2 + x*y - 2*y - 2; x*y^2 - y - 4*x + 2", "x - 1; y + 1", 1),
    ("x", QUARTIC, "x^2 + x + 1", 2),
    ("y1,y2,y3,y4", FERMAT, "y4; y3 + 1; y2 + 1; y1", 1),
])
def test_two_groebner_runs_per_simple_local_query(capsys, monkeypatch, vars_,
                                                 polys, ideal, rank):
    runs = []
    original = poly._buchberger

    def counting(ring, gens):
        runs.append(ring.order)
        return original(ring, gens)

    def forbidden(*args):
        raise AssertionError("the degree path must not take colon ideals")

    monkeypatch.setattr(poly, "_buchberger", counting)
    for name in ("saturation", "ideal_quotient", "_intersect"):
        monkeypatch.setattr(poly, name, forbidden)
    obj = run_json(capsys, "degree", "local", "--field", "QQ", "--vars", vars_,
                   "--polys", polys, "--ideal", ideal)
    assert runs == ["grevlex", "grevlex"]
    assert obj["rank"] == rank
    assert not any(hasattr(v, "cache_info") for v in vars(poly).values())


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
                   "--vars", "x", "--polys", str(path))
    assert obj["rank"] == 4

    monkeypatch.setattr("sys.stdin", io.StringIO(QUARTIC))
    obj = run_json(capsys, "degree", "global", "--field", "QQ",
                   "--vars", "x", "--polys", "-")
    assert obj["rank"] == 4


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


@pytest.mark.parametrize("argv, offset", [
    (("form", "make", "diagonal", "--entries", "1, 2,x"), 5),
    (("form", "make", "diagonal", "--entries", "1,1/0"), 2),
    (("form", "make", "pfister", "--entries", "2,  3/0"), 4),
    (("form", "invariants", "--diag", "3,-1,  y"), 7),
    (("form", "decompose", "--diag", "1.5"), 0),
])
def test_entry_parse_errors_report_character_offsets(capsys, argv, offset):
    code, _, err = run(capsys, *argv[:-2], "--field", "QQ", *argv[-2:])
    assert code == 2
    assert err.rstrip().endswith(f"(at position {offset})")


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
    obj = run_json(capsys, "form", "diagonalize", "--field", "QQ",
                   "--matrix", "[[2,3,1],[3,7,5],[1,5,11]]")
    assert obj["rank"] == 3 and len(calls) == 3


@pytest.mark.parametrize("field, diag", [
    ("QQ", "1,2,-3"), ("QQ", "3,-3,2,5,1,-9"), ("QQ", "1,1,1"),
    ("GF(7)", "1,3"), ("RR", "1,-1,2"), ("CC", "2,3"),
])
def test_form_decompose_measures_isotropy_once(capsys, monkeypatch, field,
                                               diag):
    calls = []
    original = witt.anisotropic_dimension

    def counting(beta):
        calls.append(beta.rank)
        return original(beta)

    monkeypatch.setattr(witt, "anisotropic_dimension", counting)
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
                 ("hyperbolic", "--rank", "1000000000")):
        code, out, err = run(capsys, "form", "make", *argv, "--field", "QQ")
        assert code == 1 and err.startswith("error: ") and not out


def test_base_change_flag(capsys):
    obj = run_json(capsys, "degree", "global", "--field", "QQ", "--vars", "x",
                   "--polys", QUARTIC, "--base-change", "RR")
    assert obj["field"]["name"] == "RR"
    assert obj["signature"] == 0


# -- one parser per process --------------------------------------------------


SESSION = [
    ("form", "decompose", "--field", "QQ", "--diag", "1,2,-3", "--json"),
    ("form", "decompose", "--field", "QQ", "--bogus", "1"),
    ("form", "decompose", "--field", "QQ", "--diag", "1,x"),
    ("form", "decompose", "--field", "QQ", "--diag", "1,0"),
    ("form", "decompose", "--field", "QQ", "--diag", "1,2,-3", "--json"),
]


def _fresh_process(argv):
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "a1degrees.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
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
