"""Record one point of the benchmark trajectory as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N

Runs the benchmark command of BENCHMARK.json (`python3 bench/run.py`)
unchanged for every workload it lists: REPEAT times with --trace 0 for
the end-to-end metrics, then once with --trace 1 for the per-layer
metrics, each for the file's run_seconds. Writes BENCH_<N>.json at the
root of the checkout: per workload the end-to-end metrics of every run
and, whole, the run of lowest step_ms; the per-layer metrics; the
correct/attempted/failed counts of each run; and a speed probe taken
before and after the workload's runs. Also the line count of src/mlswe
and the machine the runs were made on. The probe times a fixed numpy
kernel; it rises when other work shares the machine (a virtual
machine's load average does not show the host's), and absolute times
recorded at a higher probe are not comparable with those at a lower
one. Run it from any directory; it runs the checkout it belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REPEAT = 3  # untraced runs per workload


def bench_run(command, workload, seconds, trace) -> dict:
    """One `bench/run.py` run; its last stdout line is the JSON result."""
    args = [*command, "--workload", workload, "--seconds", f"{seconds:g}",
            "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _values(run) -> dict:
    return {name: m["value"] for name, m in run["metrics"].items()}


def _counts(run) -> dict:
    return {key: run[key] for key in ("correct", "attempted", "failed")}


def speed_probe() -> float:
    """Microseconds per call of a fixed numpy kernel on a 54 x 200 array
    (the size of internal_wave_cli), median of 5 rounds of 200 calls."""
    a = np.linspace(0.0, 1.0, 54 * 200).reshape(54, 200)
    rounds = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(200):
            np.cumsum(a, axis=0) * a + a
        rounds.append((time.perf_counter() - t) / 200 * 1e6)
    return statistics.median(rounds)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "mlswe").glob("*.py")))


def record() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = {}
    for w in bench["workloads"]:
        name = w["name"]
        probe_before = speed_probe()
        runs = [bench_run(bench["command"], name, seconds, 0) for _ in range(REPEAT)]
        traced = bench_run(bench["command"], name, seconds, 1)
        values = [_values(r) for r in runs]
        workloads[name] = {
            "end_to_end": {
                "fastest": min(values, key=lambda v: v["step_ms"]),
                "runs": values,
                "checks": [_counts(r) for r in runs],
            },
            "per_layer": _values(traced),
            "per_layer_checks": _counts(traced),
            "probe_us": [probe_before, speed_probe()],
        }
        print(f"{name}: {workloads[name]['end_to_end']['fastest']}", file=sys.stderr)
    return {
        "command": bench["command"],
        "seconds": seconds,
        "repeat": REPEAT,
        "units": units,
        "src_mlswe_lines": src_lines(),
        "machine": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version()},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="the N of BENCH_<N>.json")
    args = p.parse_args(argv)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
