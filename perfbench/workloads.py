"""Seeded inputs for the four benchmark workloads.

Every operation is one `a1deg ... --json` query.  Inputs come only from the
seed, and each operation carries the data its correctness oracle needs
(see oracles.py), computed here without calling the library.

Systems are built so that no operation can fail on a correct program: each
f_i has top-degree part x_i^{d_i} plus monomials in x_1..x_{i-1} only, so the
top-degree parts have no common zero at infinity, the system is
zero-dimensional and dim Q(f) is the Bezout number prod(d_i).  A random
unimodular change of coordinates then makes every part dense without
changing that property.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

QUARTIC = "x^4 - 6*x^2 - 7*x - 6"
GRASSMANNIAN = ["x2 - x1*x3", "1 - x1*x4", "x4 - x1 - x3^2", "-x2 - x3*x4"]
FERMAT = ["y1^3 + y3^3 + 1", "3*y1^2*y2 + 3*y3^2*y4",
          "3*y1*y2^2 + 3*y3*y4^2", "y2^3 + y4^3 + 1"]
FERMAT_VARS = ("y1", "y2", "y3", "y4")


@dataclass
class Op:
    """One query: the CLI arguments and what the oracle expects of its JSON."""

    argv: list
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Sparse integer polynomials as {exponent tuple: coefficient}.


def _mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _monomials(n: int, degree: int, nvars_used: int | None = None):
    """Exponent vectors of total degree `degree` in the first nvars_used vars."""
    used = n if nvars_used is None else nvars_used
    for combo in itertools.combinations_with_replacement(range(used), degree):
        e = [0] * n
        for i in combo:
            e[i] += 1
        yield tuple(e)


def _substitute(f: dict, rows) -> dict:
    """f(A x) for the integer matrix A given by its rows."""
    n = len(rows)
    linear = [{tuple(int(k == j) for k in range(n)): a
               for j, a in enumerate(row) if a} for row in rows]
    out: dict = {}
    for e, c in f.items():
        term = {(0,) * n: c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = _mul(term, linear[i])
        out = _add(out, term)
    return out


def _unimodular(rng: random.Random, n: int):
    """A product of a lower and an upper unitriangular matrix, entries -1..1."""
    low = [[1 if i == j else (rng.choice((-1, 0, 1)) if j < i else 0)
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.choice((-1, 0, 1)) if j > i else 0)
           for j in range(n)] for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _evaluate(f: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in f.items():
        term = Fraction(c)
        for x, k in zip(point, e):
            term *= Fraction(x) ** k
        total += term
    return total


def _derivative(f: dict, i: int) -> dict:
    out = {}
    for e, c in f.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def _det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            r = a[i][k] / a[k][k]
            if r:
                for j in range(k, n):
                    a[i][j] -= r * a[k][j]
    return det


def to_string(f: dict, names) -> str:
    parts = []
    for e in sorted(f, key=lambda e: (-sum(e), [-k for k in e])):
        c = f[e]
        mono = "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in zip(names, e) if k)
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts) if parts else "0"
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# Random zero-dimensional systems.


def random_system(rng: random.Random, degrees, top: int, low: int,
                  density: float = 1.0) -> list:
    """Dense system with Bezout number prod(degrees) and no zeros at infinity."""
    n = len(degrees)
    polys = []
    for i, d in enumerate(degrees):
        f = {tuple(d if k == i else 0 for k in range(n)):
             rng.choice([c for c in range(-top, top + 1) if c])}
        for e in _monomials(n, d, i):
            if rng.random() < density:
                f[e] = rng.randint(-top, top)
        for deg in range(d):
            for e in _monomials(n, deg):
                if rng.random() < density:
                    f[e] = rng.randint(-low, low)
        polys.append({e: c for e, c in f.items() if c})
    rows = _unimodular(rng, n)
    return [_substitute(f, rows) for f in polys]


def _var_names(n: int):
    return tuple("xyzw"[:n])


def _system_argv(kind: str, field_name: str, names, polys) -> list:
    return ["degree", kind, f"--field={field_name}", f"--vars={','.join(names)}",
            f"--polys={'; '.join(polys)}", "--json"]


def _global_op(field_name: str, char: int, names, polys: list,
               rank: int) -> Op:
    return Op(_system_argv("global", field_name, names,
                           [to_string(f, names) for f in polys]),
              {"rank": rank, "system": (char, tuple(names), tuple(
                  tuple(sorted(f.items())) for f in polys))})


# ---------------------------------------------------------------------------
# Workloads.  A workload is a list of paper fixtures, which every run pays
# for once, and a cycle of input shapes: random operations are drawn shape
# by shape in that fixed order, so every run has the same mix of sizes and
# only the random content depends on the seed.


def _global_qq(rng: random.Random, shape) -> list:
    degrees, top, low = shape
    polys = random_system(rng, degrees, top=top, low=low)
    return [_global_op("QQ", 0, _var_names(len(degrees)), polys,
                       math.prod(degrees))]


GLOBAL_QQ_FIXTURES = [
    Op(_system_argv("global", "QQ", ("x",), [QUARTIC]),
       {"rank": 4, "class": "quartic"}),
    Op(_system_argv("global", "QQ", FERMAT_VARS, FERMAT),
       {"rank": 18, "class": "fermat"}),
]
# (degrees, top-degree coefficient bound, lower coefficient bound).  Rank-9
# systems carry the tail: their invariants factor the largest diagonal
# entries, whose size grows with the coefficients, so these are kept small
# enough that a run samples the tail many times.  The shares put p50 inside the (3, 2) band and p90
# inside the rank-9 band, away from the edges where a percentile would
# jump between bands.
GLOBAL_QQ_SHAPES = [((2, 2), 3, 5), ((2, 3), 3, 5), ((3, 2), 3, 5),
                    ((3, 3), 1, 2), ((3, 2), 3, 5), ((3, 3), 1, 2)]


def _global_gf(rng: random.Random, shape) -> list:
    (name, char), degrees = shape
    polys = random_system(rng, degrees, top=char - 1, low=char - 1,
                          density=0.7)
    polys = [{e: c % char for e, c in f.items() if c % char} for f in polys]
    return [_global_op(name, char, _var_names(len(degrees)), polys,
                       math.prod(degrees))]


GLOBAL_GF_FIXTURES = [
    Op(_system_argv("global", "GF(27)", ("x1", "x2", "x3", "x4"),
                    GRASSMANNIAN),
       {"rank": 6, "class": "grassmannian", "char": 3}),
]
GF_FIELDS = (("GF(7)", 7), ("GF(25)", 5), ("GF(27)", 3), ("GF(121)", 11))
# Random systems have three variables and degrees (2, 2, 2) or (2, 2, 3),
# two to three; the Grassmannian is the run's 4-variable computation.
# Larger random systems (a (2, 3, 3) system costs 0.2-0.45 s depending on
# the field, a 4-variable one 0.3-1 s) are left out: a run could hold too
# few of them for a steady p90.  The shares keep p50 and p90 inside the
# (2, 2, 3) band, away from its edge where p50 would jump between bands.
GF_DEGREES = [(2, 2, 2)] * 2 + [(2, 2, 3)] * 3
GLOBAL_GF_SHAPES = [(f, d) for f in GF_FIELDS for d in GF_DEGREES]


def _planted_system(rng: random.Random, n: int, degrees):
    """A system vanishing at n + 1 affinely independent integer points.

    Subtracting the affine interpolant of the values at those points keeps
    the top-degree parts, hence zero-dimensionality; draws whose zeros are
    not all simple are redrawn so that each local degree is <det Jac(p)>.
    """
    while True:
        base = random_system(rng, degrees, top=2, low=3)
        pts = [tuple(rng.randint(-2, 2) for _ in range(n))
               for _ in range(n + 1)]
        aff = [[1, *p] for p in pts]
        d = _det(aff)
        if not d:
            continue
        polys = []
        for f in base:
            values = [_evaluate(f, p) for p in pts]
            coeffs = [_det([row[:k] + [v] + row[k + 1:]
                            for row, v in zip(aff, values)]) / d
                      for k in range(n + 1)]
            scale = math.lcm(*(c.denominator for c in coeffs))
            corr = {tuple(int(k == j) for k in range(n)): -int(c * scale)
                    for j, c in enumerate(coeffs[1:])}
            corr[(0,) * n] = -int(coeffs[0] * scale)
            polys.append(_add({e: c * scale for e, c in f.items()},
                              {e: c for e, c in corr.items() if c}))
        jacs = [_det([[_evaluate(_derivative(f, j), p) for j in range(n)]
                      for f in polys]) for p in pts]
        if all(jacs):
            return polys, pts, jacs


def _local_qq(rng: random.Random, degrees) -> list:
    """One operation per planted zero, so the system's ideal is shared."""
    n = len(degrees)
    polys, pts, jacs = _planted_system(rng, n, degrees)
    names = _var_names(n)
    argv = _system_argv("local", "QQ", names,
                        [to_string(f, names) for f in polys])
    ops = []
    for p, jac in zip(pts, jacs):
        ideal = "; ".join(f"{v} - {c}" if c > 0 else
                          f"{v} + {-c}" if c < 0 else v
                          for v, c in zip(names, p))
        ops.append(Op(argv + [f"--ideal={ideal}"],
                      {"rank": 1, "det_jac": jac}))
    return ops


LOCAL_QQ_FIXTURES = [
    Op(_system_argv("local", "QQ", ("x",), [QUARTIC]) + [f"--ideal={ideal}"],
       {"rank": rank, "class": cls})
    for ideal, rank, cls in (("x^2 + x + 1", 2, "quartic_complex"),
                             ("x - 3", 1, "quartic_3"),
                             ("x + 2", 1, "quartic_-2"))
] + [
    Op(_system_argv("local", "QQ", FERMAT_VARS, FERMAT) +
       ["--ideal=y4; y3 + 1; y2 + 1; y1"], {"rank": 1, "class": "fermat_point"}),
]
# Two-variable systems only: a 3-variable one costs about a second per
# point, so a run could hold only three or four of them, too few for a
# steady p90.  The Fermat point is the run's large local computation.  The
# shares keep p50 inside the rank-6 band and p90 inside the rank-9 band.
LOCAL_QQ_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 3)]


def _decompose_qq(rng: random.Random, shape) -> list:
    kind, rank = shape
    if kind == "diag":
        vals = [v for v in range(-30, 31) if v]
        entries = [rng.choice(vals) for _ in range(rank)]
        return [Op(["form", "decompose", "--field=QQ",
                    "--diag=" + ",".join(map(str, entries)), "--json"],
                   {"rank": rank, "entries": entries})]
    while True:
        m = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                m[i][j] = m[j][i] = rng.randint(-9, 9)
        if _det(m):
            break
    text = "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in m) + "]"
    return [Op(["form", "decompose", "--field=QQ", f"--matrix={text}",
                "--json"], {"rank": rank, "matrix": m})]


DECOMPOSE_QQ_FIXTURES = [
    Op(["form", "decompose", "--field=QQ", "--diag=3,-3,2,5,1,-9", "--json"],
       {"rank": 6, "entries": [3, -3, 2, 5, 1, -9],
        "display": "2H + <2> + <5>"}),
]
# The 200-form suite's diagonal forms (entries in +-30, rank 1-6) and
# dense forms of rank 2-5, six diagonal forms to one dense form.  Larger
# dense forms are left out: at rank 8 the invariants factor entries of up
# to 35 digits, a 1-6 s operation now and then, and at rank 6 the
# realization search sometimes builds candidate lists of tens of MB, so
# both time and peak RSS would hang on a few draws.
DECOMPOSE_QQ_SHAPES = [s for r in range(2, 6) for s in
                       [("diag", (r + k) % 6 + 1) for k in range(6)] +
                       [("dense", r)]]


WORKLOADS = {
    "global_qq": (GLOBAL_QQ_FIXTURES, GLOBAL_QQ_SHAPES, _global_qq),
    "global_gf": (GLOBAL_GF_FIXTURES, GLOBAL_GF_SHAPES, _global_gf),
    "local_qq": (LOCAL_QQ_FIXTURES, LOCAL_QQ_SHAPES, _local_qq),
    "decompose_qq": (DECOMPOSE_QQ_FIXTURES, DECOMPOSE_QQ_SHAPES, _decompose_qq),
}


def _random_ops(name: str, rng: random.Random):
    _, shapes, make = WORKLOADS[name]
    for shape in itertools.cycle(shapes):
        yield from make(rng, shape)


def make_ops(name: str, seed: int, count: int) -> list:
    """The run's operations: the fixtures, then seeded random operations."""
    fixtures = WORKLOADS[name][0]
    rng = random.Random(f"{name}:{seed}")
    return (fixtures + list(itertools.islice(_random_ops(name, rng),
                                             max(0, count - len(fixtures)))))[:count]


def warmup_op(name: str, seed: int) -> Op:
    """A random operation drawn apart from the timed ones."""
    return next(_random_ops(name, random.Random(f"{name}:{seed}:warmup")))
