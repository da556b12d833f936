"""Time the scaling ladder stage by stage, in process.

Usage, from the root of a checkout::

    python3 tools/ladder.py [--quick] [--pr N] [--src DIR]

Each rung is one global or local degree query, built and run through the
library, not the CLI.  Its stages are timed in CPU seconds: ``parse`` (the
ring, the system and the point from their text), ``groebner_basis`` (for a
local rung, the local ideal), ``after_gb`` (``degrees._degree_from_basis``,
with the path it took: ``residue``, or ``bezoutian`` if it built a
Bezoutian) and ``invariants`` (``forms.get_invariants``).  A rung runs K
times and each stage reports its median.  A run that raises is recorded
with the stage, its message and the CPU time spent, and the rung is not run
again: QQ (2,)*7 is expected to end in ``square class too large to
factor``.  Each rung runs in a child process of its own, with a CPU limit
of RUNG_CPU_LIMIT_S set in that child only; a child the limit stops is
recorded as such.

``--quick`` runs only the rungs that take under 0.1 s.  ``--src`` names the
source tree the library is imported from (default: this checkout's
``src``), so one session can time a parent and a change.  The run's record
is printed as JSON; ``--pr N`` also appends it to ``BENCH_<N>.json`` at the
root of this checkout.  The random systems are perfbench's
``random_system(Random(1), shape, top=3, low=3)``; ``perfbench/`` is only
imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

K = 3
RUNG_CPU_LIMIT_S = 600
STAGES = ("parse", "groebner_basis", "after_gb", "invariants")


def _random(field, shape):
    names = tuple(f"x{i}" for i in range(1, len(shape) + 1))
    polys = workloads.random_system(random.Random(1), shape, top=3, low=3)
    return {"field": field, "vars": names,
            "polys": [workloads.to_string(f, names) for f in polys]}


# name: (quick, query), quick for the rungs that took under 0.1 s on a
# 2-core AMD EPYC VM with Python 3.11.  A query has a field, variables and
# polynomials, and for a local rung the point's ideal; "t_term" adds
# t * (the last variable) to f_1 through the library, a coefficient no
# text can name.
RUNGS = {
    "QQ (2,2,2,2)": (True, _random("QQ", (2, 2, 2, 2))),
    "QQ (2,2,2,3)": (True, _random("QQ", (2, 2, 2, 3))),
    "QQ (2,)*6": (False, _random("QQ", (2,) * 6)),
    "QQ (3,3,3,3)": (False, _random("QQ", (3, 3, 3, 3))),
    "GF(7) (2,)*6": (False, _random("GF(7)", (2,) * 6)),
    "GF(1000003) (3,3,3,3)": (True, _random("GF(1000003)", (3, 3, 3, 3))),
    "GF(7) (2,)*7": (False, _random("GF(7)", (2,) * 7)),
    "GF(25) (2,)*7": (False, _random("GF(25)", (2,) * 7)),
    "QQ (2,)*7": (False, _random("QQ", (2,) * 7)),
    "GF(25) (2,)*6 + t*x6": (False, dict(_random("GF(25)", (2,) * 6),
                                         t_term=True)),
    "QQ Fermat": (True, {"field": "QQ", "vars": workloads.FERMAT_VARS,
                         "polys": workloads.FERMAT}),
    "GF(27) Grassmannian": (True, {
        "field": "GF(27)", "vars": ("x1", "x2", "x3", "x4"),
        "polys": workloads.GRASSMANNIAN}),
    "QQ local rank 93": (True, {
        "field": "QQ", "vars": ("x", "y"),
        "polys": ["x^10 + y^11", "x^9*y + y^11 + x^3*y^6"],
        "point": ["x", "y"]}),
    "QQ local rank 73": (True, {
        "field": "QQ", "vars": ("x", "y", "z"),
        "polys": ["x^5 + y*z^3", "y^5 + z*x^3", "z^5 + x*y^3"],
        "point": ["x", "y", "z"]}),
    "QQ local x^16; y^16": (False, {
        "field": "QQ", "vars": ("x", "y"), "polys": ["x^16", "y^16"],
        "point": ["x", "y"]}),
}


def _run_rung(src: str, name: str, conn) -> None:
    """In the child: time the rung K times and send its record.  The
    library runs in this one thread, so its CPU time is the thread's: once
    RLIMIT_CPU arms a CPU timer, Linux may advance the process clock only
    in scheduler ticks (4 ms)."""
    resource.setrlimit(resource.RLIMIT_CPU,
                       (RUNG_CPU_LIMIT_S, RUNG_CPU_LIMIT_S))
    sys.path.insert(0, src)
    from a1degrees import cli, degrees, forms
    from a1degrees.poly import Ideal, PolyRing, groebner_basis

    query = RUNGS[name][1]
    built = []
    bezoutian = degrees.bezoutian_matrix

    def counting(system):
        built.append(1)
        return bezoutian(system)

    degrees.bezoutian_matrix = counting

    def parse():
        ring = PolyRing(cli.parse_field(query["field"]), tuple(query["vars"]))
        system = degrees.EndoSystem.of(ring, *query["polys"])
        if query.get("t_term"):
            t = ring.field.coerce((0, 1))
            f1 = system.polys[0] + t * ring.variable(ring.nvars - 1)
            system = degrees.EndoSystem(ring, (f1,) + system.polys[1:])
        point = Ideal.of(ring, *query["point"]) if "point" in query else None
        return system, point

    def basis(system, point):
        if point is None:
            return groebner_basis(Ideal(system.ring, system.polys))
        return degrees._local_ideal(system, point)[0]

    def timed(stage, step, *args):
        start = time.thread_time()
        try:
            return step(*args)
        finally:
            times[stage] = time.thread_time() - start

    runs, record = [], {"name": name}
    for _ in range(K):
        times, built[:] = {}, []
        try:
            system, point = timed("parse", parse)
            gb = timed("groebner_basis", basis, system, point)
            beta = timed("after_gb", degrees._degree_from_basis, system, gb)
            record["rank"] = beta.rank
            record["path"] = "bezoutian" if built else "residue"
            timed("invariants", forms.get_invariants, beta)
        except (ValueError, ZeroDivisionError) as exc:  # exit 1 in the CLI
            record["error"] = {"stage": list(times)[-1], "message": str(exc),
                               "stages_s": times}
            break
        runs.append(times)
    record["runs"] = len(runs)
    if runs:
        record["stages_s"] = {s: statistics.median(r[s] for r in runs)
                              for s in STAGES}
    conn.send(record)


def time_rung(src: str, name: str) -> dict:
    ctx = multiprocessing.get_context("spawn")
    receive, send = ctx.Pipe(duplex=False)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = ctx.Process(target=_run_rung, args=(src, name, send))
    child.start()
    send.close()
    try:
        record = receive.recv()
    except EOFError:  # the child died: its CPU limit, or a crash
        record = None
    child.join()
    if record is None:
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        record = {"name": name, "runs": 0, "error": {
            "stage": None, "cpu_s": (after.ru_utime + after.ru_stime) -
            (before.ru_utime + before.ru_stime),
            "message": f"child exited with code {child.exitcode}; its CPU "
                       f"limit is {RUNG_CPU_LIMIT_S} s"}}
    return record


def src_digest(src: Path) -> str:
    """sha256 over the library's sources, so a record names the tree it
    timed without naming a path."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="only the rungs under 0.1 s")
    parser.add_argument("--pr", type=int,
                        help="append the record to BENCH_<N>.json")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree to import the library from")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg_start": os.getloadavg(), "k": K, "quick": args.quick,
              "src_sha256": src_digest(src),
              "rungs": [time_rung(str(src), name)
                        for name, (quick, _) in RUNGS.items()
                        if quick or not args.quick]}
    record["loadavg_end"] = os.getloadavg()
    print(json.dumps(record, indent=2))
    if args.pr is not None:
        path = ROOT / f"BENCH_{args.pr}.json"
        bench = json.loads(path.read_text()) if path.exists() else \
            {"pr": args.pr, "runs": []}
        bench["runs"].append(record)
        path.write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
