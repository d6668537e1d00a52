"""Record one benchmark point, paired with its parent, as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N --parent REF

Exports the committed files of REF (`git archive`) into a temporary
directory and runs the benchmark command of BENCHMARK.json (`python3
bench/run.py`) unchanged in both trees for every workload it lists: PAIRS
untraced runs of REF's and of this checkout's alternate, REF first in the
even-numbered pairs, then one traced run of each, every run for the file's
run_seconds. Only paired runs compare a change with its parent on a shared
machine. Writes BENCH_<N>.json at the root of the checkout: per workload
and side (this checkout at the top level, REF under "parent") the
end-to-end metrics of every run in pair order and, whole, the run of
lowest step_ms; the per-layer metrics; the correct/attempted/failed counts
of each run; and a speed probe taken before and after the workload's runs.
Also the line count of src/mlswe on both sides, REF and its commit, and the
machine the runs were made on. The probe times a fixed numpy kernel; it
rises when other work shares the machine (a virtual machine's load average
does not show the host's). Run it from any directory; it runs the checkout
it belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10  # untraced runs per workload and side


def bench_run(root, command, workload, seconds, trace) -> dict:
    """One `bench/run.py` run in the checkout at `root`; its last stdout
    line is the JSON result."""
    args = [*command, "--workload", workload, "--seconds", f"{seconds:g}",
            "--trace", str(trace)]
    proc = subprocess.run(args, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} in {root} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _values(run) -> dict:
    return {name: m["value"] for name, m in run["metrics"].items()}


def _counts(run) -> dict:
    return {key: run[key] for key in ("correct", "attempted", "failed")}


def _summary(runs, traced) -> dict:
    values = [_values(r) for r in runs]
    return {
        "end_to_end": {
            "fastest": min(values, key=lambda v: v["step_ms"]),
            "runs": values,
            "checks": [_counts(r) for r in runs],
        },
        "per_layer": _values(traced),
        "per_layer_checks": _counts(traced),
    }


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


def src_lines(root) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "mlswe").glob("*.py")))


def export(ref, dest) -> str:
    """Write the committed files of `ref` into `dest`; return its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return commit.stdout.strip()


def record(parent_root) -> dict:
    """The record of this checkout paired with the one at `parent_root`."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    roots = {"parent": parent_root, "change": ROOT}
    workloads = {}
    for w in bench["workloads"]:
        name = w["name"]
        probe_before = speed_probe()
        runs = {side: [] for side in roots}
        for i in range(PAIRS):
            for side in (roots if i % 2 == 0 else reversed(roots)):
                runs[side].append(bench_run(roots[side], command, name, seconds, 0))
        traced = {side: bench_run(root, command, name, seconds, 1)
                  for side, root in roots.items()}
        entry = _summary(runs["change"], traced["change"])
        entry["probe_us"] = [probe_before, speed_probe()]
        entry["parent"] = _summary(runs["parent"], traced["parent"])
        workloads[name] = entry
        for side in roots:
            med = {k: statistics.median(_values(r)[k] for r in runs[side])
                   for k in ("setup_s", "run_s", "step_ms", "peak_rss_mb")}
            print(f"{name} {side}: median {med}", file=sys.stderr)
    return {
        "command": command,
        "seconds": seconds,
        "repeat": PAIRS,
        "units": units,
        "src_mlswe_lines": src_lines(ROOT),
        "machine": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version()},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="the N of BENCH_<N>.json")
    p.add_argument("--parent", metavar="REF", required=True,
                   help="the git commit to pair every run with")
    args = p.parse_args(argv)
    out = ROOT / f"BENCH_{args.pr}.json"
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        commit = export(args.parent, Path(tmp))
        result = record(Path(tmp))
        result["parent"] = {"ref": args.parent, "commit": commit,
                            "src_mlswe_lines": src_lines(Path(tmp))}
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
