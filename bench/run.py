"""The mlswe benchmark: run one workload end to end, check it, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/. The run sets up the workload in fresh interpreters to time set-up,
then repeats whole rounds (one process each) while another round still fits
in S seconds; there is always at least one. With --trace 0 the last line of
stdout is the end-to-end metrics, with --trace 1 the per-layer metrics of
traced rounds, each paired with an untraced round to give the overhead.
The workloads are deterministic: the seed is accepted and has nothing to
select. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import ALL_LABELS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0          # a run must end within 180 s
TAIL_BEYOND = 10              # samples beyond the tail percentile
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker(args, deadline) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "workloads.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _round(workload, traced, deadline) -> dict:
    out_dir = BENCH / "_runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        args = ["--workload", workload, "--out", str(out_dir)]
        r = _worker(args + (["--trace"] if traced else []), deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed = [c for c in r["checks"] if not c[1]]
    for name, _, detail in failed:
        print(f"check failed: {workload} {name}: {detail}", file=sys.stderr)
    # operations: every step (a step that ends the run unstable fails)
    # and every output check
    r["attempted"] = r["steps"] + int(r["unstable"]) + len(r["checks"])
    r["failed"] = int(r["unstable"]) + len(failed)
    return r


def _rounds(workload, seconds, trace, deadline) -> list:
    """Whole rounds while another one fits in `seconds`; in trace mode a
    round is an untraced and a traced process, run back to back."""
    start = time.monotonic()
    rounds = []
    while True:
        t0 = time.monotonic()
        group = [_round(workload, False, deadline)]
        if trace:
            group.append(_round(workload, True, deadline))
        rounds.append(group)
        last = time.monotonic() - t0
        if time.monotonic() - start + last > seconds:
            return rounds


def _tail(samples) -> float:
    """The highest whole percentile of `samples` with at least TAIL_BEYOND
    samples beyond it."""
    if len(samples) <= TAIL_BEYOND:
        return max(samples, default=0.0)
    p = math.floor(100.0 * (1.0 - TAIL_BEYOND / len(samples)))
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(setup, rounds) -> dict:
    runs = [g[0] for g in rounds]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(r["run_s"] for r in runs), "s"),
        "step_ms": (1e3 * statistics.median(d for r in runs for d in r["step_s"]), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }


# traced labels whose ms_per_step is self time and that get no call count
SELF_TIME = ("integrators.step", "harness.run_case")
# traced labels reported per round, not per step
PER_ROUND = ("csvio.write_run", "cases.build_problem")


def per_layer(rounds) -> dict:
    traced = [g[1] for g in rounds]
    steps = max(1, sum(r["trace"]["integrators.step"][0] for r in traced))

    out = {}
    for label in ALL_LABELS:
        if label in PER_ROUND:
            continue
        calls, total, own = (sum(r["trace"][label][i] for r in traced) for i in range(3))
        if label in SELF_TIME:
            out[f"{label}.ms_per_step"] = (1e3 * own / steps, "ms/step")
        else:
            out[f"{label}.ms_per_step"] = (1e3 * total / steps, "ms/step")
            out[f"{label}.calls_per_step"] = (calls / steps, "calls/step")
    out["integrators.rhs_per_step"] = (sum(r["n_rhs"] for r in traced) / steps, "calls/step")
    out["integrators.implicit_solves_per_step"] = (
        sum(r["n_implicit"] for r in traced) / steps, "calls/step")

    write_s = statistics.median(r["trace"]["csvio.write_run"][1] for r in traced)
    nbytes = statistics.median(r["csv_bytes"] for r in traced)
    out["csvio.write_run.s"] = (write_s, "s")
    out["csvio.write_run.bytes"] = (nbytes, "B")
    out["csvio.write_run.rows"] = (statistics.median(r["csv_rows"] for r in traced), "count")
    out["csvio.write_run.MB_per_s"] = (nbytes / 1e6 / write_s if write_s > 0 else 0.0, "MB/s")
    out["cases.build_problem.ms"] = (
        1e3 * statistics.median(r["trace"]["cases.build_problem"][1] for r in traced), "ms")

    # the step-time tail of the untraced rounds: unbounded, see README
    out["integrators.step.ms_tail"] = (
        1e3 * statistics.median(_tail(g[0]["step_s"]) for g in rounds), "ms")

    plain = statistics.median(g[0]["run_s"] for g in rounds)
    overhead = statistics.median(r["run_s"] for r in traced) - plain
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_pct"] = (100.0 * overhead / plain, "%")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="accepted; the workloads have no random input")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "mlswe" / "__init__.py").is_file():
        print(f"error: no mlswe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setup = [] if args.trace else [
            _worker(["--workload", args.workload, "--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        rounds = _rounds(args.workload, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    done = [r for g in rounds for r in g]
    metrics = per_layer(rounds) if args.trace else end_to_end(setup, rounds)
    print(json.dumps({
        "correct": all(c[1] for r in done for c in r["checks"]),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
