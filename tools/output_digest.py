"""Fingerprint the CLI's observable output on the benchmark's operations.

For each workload this runs the operations of
``make_ops(w, 7, 60) + make_ops(w, 11, 120)`` (180 per workload, 720 in
all) in one process and prints one sha256 over every operation's argv,
exit code, stdout and stderr.  It then runs the same operations with
``--json`` removed and prints a second line, ``<workload>:pretty``, for the
pretty format.  The deck ``cli``, the fixed queries of ``CLI_DECK``, covers
the subcommands no workload runs the same way.  Two checkouts print the
same lines exactly when their outputs are byte-identical on those
operations, in both formats.

Usage, from the root of a checkout::

    python3 tools/output_digest.py [--check] [workload | cli ...]

With ``--check`` each printed line is compared with the line of the same
key (deck or ``<deck>:pretty``) in ``tools/output_digests.txt``,
the checked-in digests, and the exit code is 1 if any differs: a change
that must not alter any output passes with that file unchanged.  With or
without ``--check``, a query that raises instead of returning an exit code
is a library bug: its argv is printed and the exit code is 1, so digests
regenerated along with a crash do not pass.

The operations come from ``perfbench/workloads.py``, which is only imported;
the library is imported from this checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from a1degrees import cli  # noqa: E402

DECKS = ((7, 60), (11, 120))
RECORDED = ROOT / "tools" / "output_digests.txt"

# Fixed queries for the subcommands no workload runs, and for the degree
# commands' --base-change and error paths.  Argparse rejections are left
# out: their wording differs between Python versions.
_SYSTEM = ["--vars", "x,y", "--polys", "x^2 - y^3; y^2 - x^3"]
CLI_DECK = [
    ["form", "diagonalize", "--field", "QQ", "--matrix", "[[1,3],[3,7]]",
     "--json"],
    ["form", "diagonalize", "--field", "QQ", "--matrix",
     "[[0,2,1],[2,0,3],[1,3,0]]", "--json"],
    ["form", "diagonalize", "--field", "QQ", "--diag", "1/2,-3/4,5", "--json"],
    ["form", "diagonalize", "--field", "GF(9)", "--matrix",
     "[[0,2,1],[2,0,1],[1,1,0]]", "--json"],
    ["form", "diagonalize", "--field", "GF(7)", "--diag", "3,5", "--json"],
    # pivots 3 and 2/3: a pivot's prime that the record skips
    ["form", "diagonalize", "--field", "QQ", "--matrix", "[[3,1],[1,1]]",
     "--json"],
    ["form", "invariants", "--field", "QQ", "--matrix",
     "[[2,3,1],[3,7,5],[1,5,11]]", "--json"],
    ["form", "invariants", "--field", "QQ", "--diag", "1/3,-2,6/5", "--json"],
    ["form", "invariants", "--field", "QQ", "--matrix", "[[3,1],[1,1]]"],
    ["form", "invariants", "--field", "GF(25)", "--matrix", "[[0,1],[1,0]]",
     "--json"],
    ["form", "invariants", "--field", "QQ", "--matrix", "[[1,2],[2,4]]",
     "--json"],
    ["form", "invariants", "--field", "GF(6)", "--diag", "1,2", "--json"],
    ["form", "invariants", "--field", "ZZ", "--diag", "1,2", "--json"],
    ["form", "anisotropic-part", "--field", "QQ", "--diag", "1,-1,2,3",
     "--json"],
    ["form", "anisotropic-part", "--field", "QQ", "--matrix",
     "[[0,1,2],[1,0,3],[2,3,0]]", "--json"],
    ["form", "anisotropic-part", "--field", "GF(7)", "--diag", "1,1,1",
     "--json"],
    ["form", "isomorphic", "--field", "QQ", "1,1", "2,2", "--json"],
    ["form", "isomorphic", "--field", "QQ", "[[0,1],[1,0]]", "1,-1", "--json"],
    ["form", "isomorphic", "--field", "QQ", "1,2", "1,3", "--json"],
    ["form", "isomorphic", "--field", "GF(27)", "1,2", "1,1", "--json"],
    ["form", "make", "diagonal", "--field", "QQ", "--entries", "1,-2/3",
     "--json"],
    ["form", "make", "hyperbolic", "--field", "GF(9)", "--rank", "4",
     "--json"],
    ["form", "make", "pfister", "--field", "QQ", "--entries", "2,3", "--json"],
    ["form", "make", "hyperbolic", "--field", "QQ", "--rank", "3", "--json"],
    ["form", "make", "diagonal", "--field", "QQ", "--json"],
    ["symbol", "hilbert", "-1", "-1", "2", "--json"],
    ["symbol", "hilbert", "1/2", "-3", "3", "--json"],
    ["symbol", "hilbert", "5", "7", "4", "--json"],
    ["basis", "local", "--field", "QQ", *_SYSTEM, "--ideal", "x; y",
     "--json"],
    ["basis", "local", "--field", "GF(7)", *_SYSTEM, "--ideal",
     "x - 1; y - 1", "--json"],
    ["degree", "global", "--field", "QQ", "--vars", "x", "--polys",
     "x^4 - 5*x^2 + 4", "--base-change", "RR", "--json"],
    ["degree", "local", "--field", "QQ", *_SYSTEM, "--ideal", "x; y",
     "--base-change", "CC", "--json"],
    ["degree", "global", "--field", "GF(9)", "--vars", "x", "--polys",
     "x^2 - 2", "--base-change", "RR", "--json"],
    ["degree", "global", "--field", "RR", "--vars", "x", "--polys", "x^2 - 2",
     "--json"],
    ["form", "invariants", "--field", "GF(9)", "--diag", "1/2,2", "--json"],
    ["basis", "local", "--field", "QQ", "--vars", "x,y", "--polys",
     "x*y; x^2*y", "--ideal", "x; y", "--json"],
    ["degree", "local", "--field", "GF(7)", *_SYSTEM, "--ideal",
     "x - 1; y - 1", "--json"],
    ["degree", "local", "--field", "GF(25)", *_SYSTEM, "--ideal", "x; y",
     "--json"],
    ["degree", "global", "--field", "QQ", "--vars", "x,y", "--polys",
     "x + 2*y - 1; x^2 - y^3 + 3", "--json"],
    ["degree", "global", "--field", "GF(25)", "--vars", "x,y", "--polys",
     "x + 2*y - 1; x^2 - y^3 + 3", "--json"],
    ["degree", "local", "--field", "QQ", "--vars", "x,y", "--polys",
     "x^300 + y^2; y^300 + x^2", "--ideal", "x; y", "--json"],
    ["degree", "global", "--field", "QQ", "--vars", "x", "--polys",
     "(" * 101 + "x" + ")" * 101, "--json"],
    ["degree", "local", "--field", "QQ", "--vars", "x,y", "--polys",
     "(x^1000)^200 - x; y", "--ideal", "x; y", "--json"],
    ["degree", "global", "--field", "QQ", "--vars", "x,y", "--polys",
     "2*x^3 - y + 1; 3*x + 2*y - 5", "--json"],
    ["degree", "global", "--field", "GF(25)", "--vars", "x,y", "--polys",
     "2*x^3 - y + 1; 3*x + 2*y - 5", "--json"],
    ["degree", "local", "--field", "QQ", "--vars", "x,y", "--polys",
     "x^2 + y - 2; x - 3*y^2 + 2", "--ideal", "x - 1; y - 1",
     "--base-change", "RR", "--json"],
    ["degree", "local", "--field", "GF(27)", "--vars", "x,y", "--polys",
     "x^2 + y - 2; x - y^3", "--ideal", "x - 1; y - 1", "--json"],
    ["degree", "global", "--field", "QQ", "--vars", "x", "--polys",
     "((3^1000)^1000)^5*x - 1", "--json"],
    ["basis", "local", "--field", "QQ", "--vars", "x,y", "--polys",
     "(x^1000)^1000 - 1; y", "--ideal", "x - 1; y", "--json"],
    ["symbol", "hilbert", "3", "5", str(2 ** 4423 - 1), "--json"],
    ["form", "decompose", "--field", "QQ", "--diag", f"{2 ** 521 - 1},1",
     "--json"],
    ["form", "decompose", "--field", "GF(9)", "--diag", "1,1,2", "--json"],
    ["form", "decompose", "--field", "GF(27)", "--diag", "1,1", "--json"],
    ["form", "decompose", "--field", "GF(7)", "--diag", "1,1", "--json"],
    ["form", "decompose", "--field", "GF(7)", "--diag", "1,1,1,1", "--json"],
    ["form", "decompose", "--field", "RR", "--diag", "1,-1,2,3", "--json"],
    ["form", "decompose", "--field", "CC", "--diag", "2,3,5", "--json"],
    ["form", "decompose", "--field", "QQ", "--matrix", "[[0,1],[1,0]]",
     "--json"],
    ["form", "anisotropic-part", "--field", "GF(25)", "--diag", "1,2,3,4",
     "--json"],
    ["degree", "global", "--field", "GF(10007)", "--vars", "x,y", "--polys",
     "x^2 - 3*y + 1; y^2 - x*y - 2", "--json"],
    ["degree", "global", "--field", "GF(1000003)", "--vars", "x,y,z",
     "--polys", "x^2 - 3*y*z + 1; y^2 - x*z - 2; z^2 + 5*x*y - 7*z",
     "--json"],
    ["degree", "local", "--field", "GF(7)", "--vars", "x,y", "--polys",
     "(x - 1)^2 + y^3; y^2 - 3*(x - 1)^3", "--ideal", "x - 1; y", "--json"],
    ["basis", "local", "--field", "GF(3)", *_SYSTEM, "--ideal", "x; y",
     "--json"],
    # a point whose ideal is (1)
    ["degree", "local", "--field", "QQ", "--vars", "x,y", "--polys", "x^2; y",
     "--ideal", "1", "--json"],
    # Witt index 1: the witness is the part plus H
    ["form", "decompose", "--field", "QQ", "--diag", f"{2 ** 521 - 1},1,1,-1",
     "--json"],
    ["degree", "global", "--field", "QQ", "--vars", "x", "--polys",
     "x^4 - 5*x^2 + 4", "--base-change", "CC", "--json"],
    ["form", "make", "diagonal", "--field", "QQ", "--entries",
     ",".join(["1"] * 257), "--json"],
    ["degree", "global", "--field", "QQ", "--vars", "x", "--polys",
     "@/nonexistent/a1deg-deck", "--json"],
    # GF(10007^2), an extension over a five-digit prime
    ["degree", "global", "--field", "GF(100140049)", "--vars", "x,y",
     "--polys", "x^2 - 3*y + 1; y^2 - x*y - 2", "--json"],
    # a zero with J(p) = 0 over GF(121)
    ["degree", "local", "--field", "GF(121)", *_SYSTEM, "--ideal", "x; y",
     "--json"],
    # a simple zero at (1/2, -1/3): det J = 1/3 * 15 - 3 * (-2/3) = 7
    ["degree", "local", "--field", "QQ", "--vars", "x,y", "--polys",
     "(2*x - 1)*(x + y) + 3*y + 1; (3*y + 1)^2 + (2*x - 1)*y + 5*(3*y + 1)",
     "--ideal", "2*x - 1; 3*y + 1", "--json"],
    # a zero at (2, -1) over GF(25) where det J = 1*2 - 1*2 vanishes mod 5
    ["degree", "local", "--field", "GF(25)", "--vars", "x,y", "--polys",
     "(x - 2)*(x + y) + y + 1; (y + 1)^2 + 3*(x - 2)*y + 2*(y + 1)",
     "--ideal", "x - 2; y + 1", "--json"],
    # one-term products with signs, a wide literal and zero exponents
    ["degree", "global", "--field", "QQ", "--vars", "x,y", "--polys",
     "- - x*-y + 12345678901234567890123456789*x*y*x - 3*x^0*y^1; y^2 - x",
     "--json"],
    # a cubic extension of GF(2^61 - 1), whose elements span three slots
    ["degree", "global", "--field", f"GF({(2 ** 61 - 1) ** 3})", "--vars",
     "x,y", "--polys", "x^2 - 3*y + 1; y^2 - x*y - 2", "--json"],
    # a zero at (2, -1) over GF(343) where det J = 1*4 + 1*3 vanishes mod 7
    ["degree", "local", "--field", "GF(343)", "--vars", "x,y", "--polys",
     "(x - 2)*(x + y) + y + 1; (y + 1)^2 + 3*(x - 2)*y + 4*(y + 1)",
     "--ideal", "x - 2; y + 1", "--json"],
    # Global degrees from the residue form, with no zeros at infinity: p
    # divides a degree over GF(3) and GF(5), an extension field, and a
    # multiple root at the origin over GF(7).  The last system has zeros at
    # infinity, at (0 : 1 : 0), and takes the Bezoutian.
    ["degree", "global", "--field", "GF(3)", "--vars", "x,y", "--polys",
     "x^3 - y + 1; y^3 + x*y - 2", "--json"],
    ["degree", "global", "--field", "GF(5)", "--vars", "x,y", "--polys",
     "x^5 - x*y + 2; y^2 - x - 1", "--json"],
    ["degree", "global", "--field", "GF(25)", "--vars", "x,y,z", "--polys",
     "x^2 + 2*x*y - 1; y^2 - 3*x*z + 2; z^3 + x*y - z", "--json"],
    ["degree", "global", "--field", "GF(7)", "--vars", "x,y", "--polys",
     "x^3 - y^2; y^3 - x^2", "--json"],
    ["degree", "global", "--field", "GF(7)", "--vars", "x,y", "--polys",
     "x^2*y - 3*y + 1; x*y^3 - x^2 + y", "--json"],
    # Residue-path classes with a nonsquare discriminant, at even and odd
    # rank, where the Gram's determinant carries c^rank: over GF(7), GF(27)
    # and a two-variable GF(7) system of rank 6.
    ["degree", "global", "--field", "GF(7)", "--vars", "x", "--polys",
     "x^2 - 2", "--json"],
    ["degree", "global", "--field", "GF(7)", "--vars", "x", "--polys",
     "x^3 - x - 1", "--json"],
    ["degree", "global", "--field", "GF(27)", "--vars", "x", "--polys",
     "x^3 - x + 1", "--json"],
    ["degree", "global", "--field", "GF(7)", "--vars", "x,y", "--polys",
     "x^2 - 3; y^3 - y - 1", "--json"],
    # QQ Gram matrices: one whose residue sweep stops at a vanishing
    # trailing minor of G' (B's second leading minor vanishes), so it takes
    # the Bezoutian, one from the residue form with non-integral entries,
    # and a rank of 14 in two variables, above the residue's limit of 6 per
    # variable, which takes the Bezoutian.
    ["degree", "global", "--field", "QQ", "--vars", "x,y", "--polys",
     "x^2 - 1; (x - y)^2 + 2", "--json"],
    ["degree", "global", "--field", "QQ", "--vars", "x,y", "--polys",
     "2*x^2 - 3*x*y + 1; 3*x*y + 2*y^2 - x", "--json"],
    ["degree", "global", "--field", "QQ", "--vars", "x,y", "--polys",
     "x^2 - 3*y + 1; y^7 - x*y^3 + 2*x - 1", "--json"],
]

# Fields of order 625 to 4093, each with a form's invariants, its Witt
# decomposition and a global degree: their square classes and canonical
# nonsquares take the field's element arithmetic.
CLI_DECK += [
    argv
    for field in ("GF(625)", "GF(2187)", "GF(3125)", "GF(4093)")
    for argv in (
        ["form", "invariants", "--field", field, "--matrix",
         "[[2,1,0],[1,3,1/2],[0,1/2,5]]", "--json"],
        ["form", "decompose", "--field", field, "--diag", "2,4,1",
         "--json"],
        ["degree", "global", "--field", field, "--vars", "x,y", "--polys",
         "x^2 - 3*y + 1; y^2 - x*y - 2", "--json"],
    )
]

# The parser's refusals: one query per parse error message (but `integer
# literal too long`, whose bound is the interpreter's), the product cap, the
# 2^31 monomial bound, and grammar corners that parse.
_SUM_1001 = "(" + " + ".join(f"x^{i}" for i in range(1001)) + ")"
CLI_DECK += [
    ["degree", "global", "--field", field, "--vars", "x,y", "--polys",
     f"{text}; y - 1", "--json"]
    for field in ("QQ", "GF(25)")
    for text in (
        "1.5*x", "2x + 1", "(x + 1)(y - 1)", "x^y", "x^1001", "z + 1",
        "(x + y", "x + * y", "x)", "-", "- " * 101 + "x",
        "- " * 102 + "x",
        f"{_SUM_1001}^2", f"{_SUM_1001}*(y + {_SUM_1001[1:]}",
        "(((x^1000)^1000)^1000)^3 - x",
        "+x^2 - (-(y))^3 + 0*x^5 + 2^3 - 0^0 + x^0",
    )
] + [
    ["degree", "local", "--field", "QQ", "--vars", "x,y", "--polys",
     "x^2 + y; y - x", "--ideal", "x; y^1001", "--json"],
    ["degree", "local", "--field", "QQ", "--vars", "x,y", "--polys",
     "x^2 + y; y - x", "--ideal", "x; y$", "--json"],
]

# The matrix parser's refusals, one per message: `expected '['`, `expected
# ']'` (after a row and at the end of the input), trailing input, a bad, an
# empty and a zero-denominator entry; then rows with a newline and a tab
# inside, and a positional matrix of `form isomorphic`, offset from its
# stripped text.
CLI_DECK += [
    ["form", "invariants", "--field", "QQ", "--matrix", text, "--json"]
    for text in ("[1,2]", "[[1,2] [2,3]]", "[[1,2],[2,3]",
                 "[[1,0],[0,1]] x", "[[1, 2],[ 2,x]]", "[[1,,2]]",
                 "[ [1,2],\n [2, 1/0]]", "[[3,\n 1],\n [1,\t2]]")
] + [
    ["form", "isomorphic", "--field", "QQ", "1,1", " [[1,0],[0,x]]",
     "--json"],
]

# Pfister forms of rank 64, built from their diagonal, over QQ and GF(25),
# and a matrix that is symmetric but for its last row.
CLI_DECK += [
    ["form", "make", "pfister", "--field", "QQ", "--entries",
     "2,3,5,7,11,13", "--json"],
    ["form", "make", "pfister", "--field", "GF(25)", "--entries",
     "1,2,3,4,6,7", "--json"],
    ["form", "invariants", "--field", "QQ", "--matrix",
     "[[1,2,3],[2,1,4],[3,5,1]]"],
]

# Rational points given by linear generators: one off the zero locus, and
# the non-monic point 3*x - 1; 2*y + 5, that is (5, 1), over GF(7), alone
# and with a redundant third generator; both answer det J(p) = 1.
_NON_MONIC = ["--vars", "x,y", "--polys",
              "(3*x - 1)*(x + y) + 2*y + 5; "
              "(2*y + 5)^2 + 3*(3*x - 1)*y + x*(2*y + 5)"]
CLI_DECK += [
    ["degree", "local", "--field", "QQ", *_SYSTEM, "--ideal",
     "2*x - 1; y + 3", "--json"],
    ["degree", "local", "--field", "GF(7)", *_NON_MONIC, "--ideal",
     "3*x - 1; 2*y + 5", "--json"],
    ["degree", "local", "--field", "GF(7)", *_NON_MONIC, "--ideal",
     "3*x - 1; 2*y + 5; x + y + 1", "--json"],
]

# The point 2*x - 1; y - x^2, that is (1/2, 1/4), whose basis is computed:
# a simple zero with Gram [[28]], a zero of rank 4, and a system off it.
_MULTIPLE = "(2*x - 1)^2 + (4*y - 1)^3; (4*y - 1)^2 - (2*x - 1)^3"
CLI_DECK += [
    ["degree", "local", "--field", "QQ", "--vars", "x,y", "--polys", polys,
     "--ideal", "2*x - 1; y - x^2", "--json"]
    for polys in ("(2*x - 1)*(x + y) + 4*y - 1; "
                  "(4*y - 1)^2 + (2*x - 1)*y + 5*(4*y - 1)",
                  _MULTIPLE, _MULTIPLE + " + 1")
]


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process query."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
        except Exception as exc:  # a library bug; `main` fails on it
            status = f"exception {type(exc).__name__}: {exc}"
    return status, out.getvalue(), err.getvalue()


def deck(name: str) -> list:
    """The argv lists of one deck: ``cli`` or a workload's operations."""
    if name == "cli":
        return CLI_DECK
    return [op.argv for seed, n in DECKS
            for op in workloads.make_ops(name, seed, n)]


def digest(name: str, pretty: bool = False) -> tuple[str, int, list]:
    """(sha256, query count, [(argv, status) of each query that raised])."""
    h = hashlib.sha256()
    argvs = deck(name)
    raised = []
    for argv in argvs:
        if pretty:
            argv = [a for a in argv if a != "--json"]
        status, out, err = run(argv)
        if not isinstance(status, int):
            raised.append((argv, status))
        for part in (repr(argv), repr(status), out, err):
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest(), len(argvs), raised


def main(argv=None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    check = "--check" in args
    names = [a for a in args if a != "--check"] or [*workloads.WORKLOADS,
                                                      "cli"]
    recorded = {line.split()[0]: line for line in
                RECORDED.read_text().splitlines()} if check else {}
    status = 0
    for name in names:
        for key, pretty in ((name, False), (f"{name}:pretty", True)):
            hexdigest, count, raised = digest(name, pretty)
            line = f"{key} {count} {hexdigest}"
            if check and recorded.get(key) != line:
                print(f"{line}  MISMATCH, recorded: {recorded.get(key)}")
                status = 1
            else:
                print(line)
            for failed, what in raised:
                print(f"  RAISED {failed!r}: {what}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
