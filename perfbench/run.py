"""Benchmark of `a1deg` queries: end to end, or layer by layer when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload global_qq --seed 1 --seconds 20 --trace 0

One process, one thread, a closed loop with one client: each operation is
one `a1deg ... --json` query run in process through `a1degrees.cli.main`,
issued after the previous one returns.  A run issues a fixed number of
operations, `--seconds` times the workload's nominal rate (at least 100, so
that p90 has ten samples above it); the count depends on nothing measured,
so a traced and an untraced run of one seed do the same operations.

Times are reported in reference seconds.  On a shared host the speed of
this process drifts in phases of seconds to minutes (the same computation
takes 1.9 to 4.5 ms), which moves raw medians by more than any useful
bound.  So after each operation the run times a fixed calibration
computation of its own (rational Gaussian elimination from workloads.py,
no library code), and scales each operation's time by
CAL_REF_S over the mean of the seven calibrations around it: the time the
operation would take where the calibration takes CAL_REF_S, as it does on
an uncontended core of the 2-core Xeon VM the benchmark was defined on.
Set-up time is scaled the same way, by calibrations made right after it.
The raw medians and the calibration time are on the line before the result.

Outputs are checked by the oracles in oracles.py after the timed loop.  An
operation fails on a nonzero exit, a wrong answer or the per-operation time
limit.  The last line of standard output is the result object; the line
before it records the seed, the environment and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Operations per second of --seconds; at the seed commit, on the 2-core VM
# under its host's usual contention (calibration 3.1-4.5 ms), the timed loop
# then lasts about --seconds.  Fixed, so that every commit runs the same
# operations.
RATE = {"global_qq": 14.0, "global_gf": 10.0, "local_qq": 8.0,
        "decompose_qq": 40.0}
MIN_OPS = 100
OP_LIMIT_S = 20      # per operation, enforced with SIGALRM
RUN_LIMIT_S = 120    # operations not started by then count as failed
SETUP_PROBES = 7
CAL_REF_S = 0.002    # calibration unit on an uncontended reference core
CAL_WINDOW = 3       # calibrations on each side averaged for one operation
CAL_MATRIX = [[(i * 7 + j * 3) % 11 - 5 + 9 * (i == j) for j in range(6)]
              for i in range(6)]


class OpTimeout(BaseException):
    """Raised by SIGALRM; not an Exception, so the CLI cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def load_cli():
    """Import the library from the checkout's source tree, never elsewhere."""
    if not (SRC / "a1degrees" / "cli.py").is_file():
        raise SystemExit(f"a1degrees sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from a1degrees import cli
    if Path(cli.__file__).resolve().parent != SRC / "a1degrees":
        raise SystemExit(f"imported a1degrees from {cli.__file__}, not {SRC}")
    return cli


def run_op(cli, argv):
    """One query; returns (seconds, status, stdout)."""
    out = io.StringIO()
    signal.alarm(OP_LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
    except OpTimeout:
        status = "timeout"
    except SystemExit as exc:  # argparse rejects the arguments
        status = exc.code
    except Exception:  # a library bug: record it and keep the loop running
        status = "exception"
        traceback.print_exc()
    finally:
        signal.alarm(0)
        elapsed = time.perf_counter() - start
    return elapsed, status, out.getvalue()


def calibration_s() -> float:
    """Seconds taken by the fixed calibration computation, timed once."""
    start = time.perf_counter()
    for _ in range(8):
        workloads._det(CAL_MATRIX)
    return time.perf_counter() - start


def scaled(raw: list, cal: list) -> list:
    """Each raw time in reference seconds, by the calibrations around it."""
    out = []
    for i, t in enumerate(raw):
        near = cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
        out.append(t * CAL_REF_S * len(near) / sum(near))
    return out


def deck_size(workload: str, seconds: float) -> int:
    return max(MIN_OPS, round(seconds * RATE[workload]))


def prepare(workload: str, seed: int, count: int):
    """Set-up: import, input generation and one warm-up query."""
    cli = load_cli()
    ops = workloads.make_ops(workload, seed, count)
    run_op(cli, workloads.warmup_op(workload, seed).argv)
    return cli, ops


def setup_probe(workload: str, seed: int, count: int, spawned: float):
    """In a fresh interpreter: print set-up time in raw and reference seconds."""
    prepare(workload, seed, count)
    setup = time.monotonic() - spawned
    cal = [calibration_s() for _ in range(2 * CAL_WINDOW + 1)]
    print(json.dumps([setup, setup * CAL_REF_S / statistics.mean(cal)]))


def setup_seconds(workload: str, seed: int, count: int):
    """Median over fresh interpreters of start-up plus `prepare`, in raw and
    reference seconds; `time.monotonic` is one clock for all processes."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"run.setup_probe({workload!r}, {seed}, {count}, float(sys.argv[1]))")
    raw, ref = [], []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code, repr(spawned)],
                             check=True, stdout=subprocess.PIPE, text=True,
                             timeout=60)
        setup, setup_ref = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(setup)
        ref.append(setup_ref)
    return statistics.median(raw), statistics.median(ref)


def gb_memo():
    """Hits and misses of the Groebner-basis memo, where the library has one."""
    info = getattr(getattr(sys.modules.get("a1degrees.poly"),
                           "_groebner_cached", None), "cache_info", None)
    return (info().hits, info().misses) if info else (0, 0)


def layer_metrics(tracer, n: int, memo, factor_inputs, scale: float) -> dict:
    m = {}
    for name, st in tracer.stats.items():
        m[f"{name}.calls"] = (st.calls, "count")
        m[f"{name}.self_s"] = (st.self_s * scale, "s")
    hits, misses = memo
    m["poly.groebner_basis.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["forms.diagonalize.calls_per_op"] = (
        tracer.stats["forms.diagonalize"].calls / n, "count/op")
    m["fields.factorize.max_bits"] = (
        max((abs(x).bit_length() for x in factor_inputs), default=0), "bits")
    m["fields.factorize.distinct_ratio"] = (
        len(set(factor_inputs)) / len(factor_inputs) if factor_inputs else 0.0,
        "ratio")
    return m


def check_output(op, status, out: str):
    """None if the query succeeded with a right answer, else the reason."""
    import oracles  # loads sympy, so only after the peak-RSS reading
    if status != 0:
        return f"status {status}"
    try:
        return oracles.check(op.expect, json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
           "loadavg": os.getloadavg()}
    count = deck_size(args.workload, args.seconds)
    cli, ops = prepare(args.workload, args.seed, count)
    setup_raw_s, setup_s = (None, None) if args.trace else \
        setup_seconds(args.workload, args.seed, count)

    tracer, factor_inputs = None, []
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install("a1degrees", {
            "fields.factorize": lambda n, *a, **k: factor_inputs.append(n)})

    signal.signal(signal.SIGALRM, _on_alarm)
    memo_before = gb_memo()
    results, cal = [], []
    loop_start = time.perf_counter()
    for op in ops:
        if time.perf_counter() - loop_start > RUN_LIMIT_S:
            results.append((0.0, "not started: run time limit", ""))
        else:
            results.append(run_op(cli, op.argv))
        cal.append(calibration_s())
    loop_s = time.perf_counter() - loop_start
    memo = tuple(a - b for a, b in zip(gb_memo(), memo_before))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for i, (op, (_, status, out)) in enumerate(zip(ops, results)):
        reason = check_output(op, status, out)
        if reason:
            failures.append({"op": i, "argv": op.argv[:3], "reason": reason})

    raw = [r[0] for r in results]
    lat = scaled(raw, cal)
    ok_ops = len(results) - len(failures)
    ops_per_s = ok_ops / sum(lat)
    if tracer:
        metrics = layer_metrics(tracer, len(results), memo, factor_inputs,
                                CAL_REF_S / statistics.median(cal))
        metrics["traced.latency_p50_s"] = (statistics.median(lat), "s")
        metrics["traced.ops_per_s"] = (ops_per_s, "1/s")
    else:
        metrics = {
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_p90_s": (statistics.quantiles(lat, n=10,
                                                   method="inclusive")[8], "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "ops": len(results), "env": env,
                      "raw": {"latency_p50_s": statistics.median(raw),
                              "ops_per_s": ok_ops / sum(raw),
                              "setup_s": setup_raw_s,
                              "calibration_s": statistics.median(cal)},
                      "loop_s": loop_s,
                      "check_s": time.perf_counter() - loop_start - loop_s,
                      "gb_memo_hits_misses": memo, "failures": failures[:20]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
