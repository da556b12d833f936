"""Fingerprint the CLI's observable output on the benchmark's operations.

For each workload this runs the operations of
``make_ops(w, 7, 60) + make_ops(w, 11, 120)`` (180 per workload, 720 in
all) in one process and prints one sha256 over every operation's argv,
exit code, stdout and stderr.  It then runs the same operations with
``--json`` removed and prints a second line, ``<workload>:pretty``, for the
pretty format.  Two checkouts print the same lines exactly when their
outputs are byte-identical on those operations, in both formats.

Usage, from the root of a checkout::

    python3 tools/output_digest.py [--check] [workload ...]

With ``--check`` each printed line is compared with the line of the same
key (workload or ``<workload>:pretty``) in ``tools/output_digests.txt``,
the checked-in digests, and the exit code is 1 if any differs: a change
that must not alter any output passes with that file unchanged.

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


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process query."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
        except Exception as exc:  # a library bug is part of the fingerprint
            status = f"exception {type(exc).__name__}: {exc}"
    return status, out.getvalue(), err.getvalue()


def digest(workload: str, pretty: bool = False) -> tuple[str, int]:
    h = hashlib.sha256()
    count = 0
    for seed, n in DECKS:
        for op in workloads.make_ops(workload, seed, n):
            argv = [a for a in op.argv if a != "--json"] if pretty else op.argv
            status, out, err = run(argv)
            for part in (repr(argv), repr(status), out, err):
                h.update(part.encode())
                h.update(b"\0")
            count += 1
    return h.hexdigest(), count


def main(argv=None) -> int:
    args = list(argv if argv is not None else sys.argv[1:])
    check = "--check" in args
    names = [a for a in args if a != "--check"] or list(workloads.WORKLOADS)
    recorded = {line.split()[0]: line for line in
                RECORDED.read_text().splitlines()} if check else {}
    status = 0
    for name in names:
        for key, pretty in ((name, False), (f"{name}:pretty", True)):
            hexdigest, count = digest(name, pretty)
            line = f"{key} {count} {hexdigest}"
            if check and recorded.get(key) != line:
                print(f"{line}  MISMATCH, recorded: {recorded.get(key)}")
                status = 1
            else:
                print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
