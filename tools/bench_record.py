"""Record one benchmark point, paired with its parent, as BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N --parent REF

Exports the committed files of REF (`git archive`) and this checkout's
tracked files as they are on disk (a new file must be `git add`ed) into two
temporary directories whose paths are as long, since a run's peak memory
moves with where its tree lies. Then it runs the benchmark command of
BENCHMARK.json (`python3 bench/run.py`) unchanged in both trees for every
workload it lists: PAIRS untraced runs of REF's and of this checkout's
alternate, REF first in the even-numbered pairs, then one traced run of
each, every run for the file's run_seconds. Only paired runs compare a
change with its parent on a shared machine. Writes BENCH_<N>.json at the root of the checkout: per workload
and side (this checkout at the top level, REF under "parent") the
end-to-end metrics of every run in pair order and, whole, the run of
lowest step_ms; the per-layer metrics; the correct/attempted/failed counts
of each run; a speed probe taken before and after the workload's runs;
the sha256 of the final state of a `run_case` of the workload, run in
each side's tree, with whether the two sides' hashes match; and the paired
step timing of `tools/step_ab.py` (STEP_AB_BLOCKS alternated blocks of
STEP_AB_STEPS steps, run from the change's tree against the parent's
package): the median change/parent ratio and the interquartile range of
the block ratios, the blocks the change won, the blocks and steps per
block, and whether the two sides' states were byte-equal after the
warm-up and after the blocks. The hash and the step
timing run with one BLAS thread, as the benchmark's workers do, and write
no bytecode into either tree.
Also the line count of src/mlswe on both sides, REF and its commit, and the
machine the runs were made on, with its CPU model, the OPENBLAS_CORETYPE
the runs inherit and numpy's version, so that a record from another host can
tell a BLAS kernel from a change. The probe times a fixed numpy kernel; it
rises when other work shares the machine (a virtual machine's load average
does not show the host's). Run it from any directory; it exports the
checkout it belongs to.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import platform
import shutil
import subprocess
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10  # untraced runs per workload and side
STEP_AB_BLOCKS, STEP_AB_STEPS = 40, 20  # step_ab blocks per workload, steps per block


def thread_env() -> dict:
    """This process's environment with each variable of bench/run.py's
    THREAD_VARS set to "1", as that script sets it for its workers: one BLAS
    thread. The list is read from the file, not imported with it, because a
    BLAS reads these variables once, when numpy loads."""
    for node in ast.parse((ROOT / "bench" / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "THREAD_VARS" for t in node.targets):
            return dict(os.environ, **{v: "1" for v in ast.literal_eval(node.value)})
    raise LookupError("bench/run.py assigns no THREAD_VARS")


def bench_run(root, command, workload, seconds, trace) -> dict:
    """One `bench/run.py` run in the checkout at `root`; its last stdout
    line is the JSON result."""
    args = [*command, "--workload", workload, "--seconds", f"{seconds:g}",
            "--trace", str(trace)]
    proc = subprocess.run(args, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} in {root} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# run in a tree with its root as argv[1] and the workload as argv[2]: the
# sha256 of the bytes of the final state (t, eta, u, rho) of the workload's
# `run_case`
_FINAL_STATE_HASH = """
import hashlib, sys
sys.path.insert(0, sys.argv[1] + "/bench")
import numpy as np
import workloads  # puts the tree's src first on sys.path
import mlswe
result = mlswe.run_case(workloads.case(sys.argv[2]))
s = result.states[-1]
arrays = (np.float64(result.times[-1]), s.eta, s.u, s.rho)
print(hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())
"""


def _child(script, root, *args) -> str:
    """The stdout of `script` run with one BLAS thread (`thread_env`) in
    the tree at `root`, with argv [root, *args]; it writes no bytecode."""
    args = [sys.executable, "-B", "-c", script, str(root), *map(str, args)]
    proc = subprocess.run(args, cwd=root, env=thread_env(), capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[5:])} in {root} failed:\n"
                           f"{proc.stderr.strip()}")
    return proc.stdout.strip()


def final_state_hash(root, workload) -> str:
    """The sha256 of the final state of `workloads.case(workload)` run by
    `run_case` in the tree at `root`, which is left as it was."""
    return _child(_FINAL_STATE_HASH, root, workload)


# run in a tree with its root as argv[1]: tools/step_ab.py's `compare` of
# that tree against the package under argv[2] on the workloads argv[3]
# (comma-separated) in argv[4] blocks of argv[5] steps, as JSON
_STEP_AB = """
import json, sys
sys.path.insert(0, sys.argv[1] + "/tools")
import step_ab
cases, blocks, steps = sys.argv[3].split(","), int(sys.argv[4]), int(sys.argv[5])
print(json.dumps(step_ab.compare(sys.argv[2], cases, blocks, steps)))
"""


def paired_steps(root, parent_src, cases, blocks, steps) -> dict:
    """tools/step_ab.py's `compare` of the tree at `root` against the
    package under `parent_src`: case -> [median change/parent ratio, its
    interquartile range, blocks won, blocks, states byte-equal], with one
    BLAS thread and no bytecode written into either tree."""
    return json.loads(_child(_STEP_AB, root, parent_src, ",".join(cases), blocks, steps))


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


def export_checkout(dest) -> None:
    """Write this checkout's tracked files, as they are on disk, into `dest`."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    for name in filter(None, listed.stdout.split("\0")):
        if (ROOT / name).is_file():  # a deleted file is not exported
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


@contextlib.contextmanager
def exported_trees(ref):
    """(parent root, change root, REF's commit): REF and this checkout, each
    exported into a temporary directory; the two paths are as long."""
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as parent, \
            tempfile.TemporaryDirectory(prefix="bench_change_") as change:
        commit = export(ref, Path(parent))
        export_checkout(Path(change))
        yield Path(parent), Path(change), commit


def cpu_model(cpuinfo=Path("/proc/cpuinfo")) -> str | None:
    """The CPU's model name from `cpuinfo`, or None where there is none."""
    try:
        lines = cpuinfo.read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            return value.strip()
    return None


def machine() -> dict:
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "cpu_model": cpu_model(),
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
            "numpy": np.__version__}


def record(parent_root, change_root) -> dict:
    """The record of the tree at `change_root` paired with the one at
    `parent_root`."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    roots = {"parent": parent_root, "change": change_root}
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
        for summary, root in ((entry, change_root), (entry["parent"], parent_root)):
            summary["final_state_sha256"] = final_state_hash(root, name)
        entry["final_states_match"] = (
            entry["final_state_sha256"] == entry["parent"]["final_state_sha256"])
        ratio, iqr, won, blocks, same = paired_steps(
            change_root, parent_root / "src", [name], STEP_AB_BLOCKS, STEP_AB_STEPS)[name]
        entry["step_ab"] = {"ratio": ratio, "iqr": iqr, "won": won, "blocks": blocks,
                            "steps": STEP_AB_STEPS, "states_equal": same}
        workloads[name] = entry
        for side in roots:
            med = {k: statistics.median(_values(r)[k] for r in runs[side])
                   for k in ("setup_s", "run_s", "step_ms", "peak_rss_mb")}
            print(f"{name} {side}: median {med}", file=sys.stderr)
        print(f"{name}: step_ab {entry['step_ab']}", file=sys.stderr)
    return {
        "command": command,
        "seconds": seconds,
        "repeat": PAIRS,
        "units": units,
        "src_mlswe_lines": src_lines(change_root),
        "machine": machine(),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="the N of BENCH_<N>.json")
    p.add_argument("--parent", metavar="REF", required=True,
                   help="the git commit to pair every run with")
    args = p.parse_args(argv)
    out = ROOT / f"BENCH_{args.pr}.json"
    with exported_trees(args.parent) as (parent, change, commit):
        result = record(parent, change)
        result["parent"] = {"ref": args.parent, "commit": commit,
                            "src_mlswe_lines": src_lines(parent)}
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
