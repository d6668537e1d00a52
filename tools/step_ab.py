"""Time the step of this checkout against a parent commit's, in one process.

    python3 tools/step_ab.py --parent REF [--case NAME ...] [--blocks N] [--steps B]

Exports the committed files of REF (`git archive`) into a temporary
directory and, in a child process with one BLAS thread (the thread
settings `bench/run.py` gives the benchmark's workers) that writes no
bytecode, imports its `src/mlswe` as the package `mlswe_parent`, next to
this checkout's `mlswe`. For each benchmark case both sides build the
problem and take WARMUP steps; then both take CHECK steps more and their
states are compared. Then they alternate N blocks of B steps each (by
default the STEP_AB_BLOCKS and STEP_AB_STEPS that `tools/bench_record.py`
records; parent first in the even-numbered pairs), each side from its own
state, and the tool prints per case the median change/parent ratio of block
times, the interquartile range of the block ratios (so a median that the
spread resolves can be told from an unsteady win count), the number of
blocks the change won, and whether the two states were byte-equal both
after the CHECK steps and after the blocks. The states are reported, not
enforced: a change may legitimately move the round-off. A step is what
`run_case` does per step: the integrator's step and the Courant numbers of
the new state, which also give the next dt under adaptive stepping.
Alternating blocks in one process cancels most of the drift of a shared
machine, which moves whole-run times by +-25%. The cases are the workloads of
`bench/workloads.py`, and its `case` builds both sides' specs: REF's with
`mlswe` bound to REF's package while it runs.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "bench")]
from bench_record import STEP_AB_BLOCKS, STEP_AB_STEPS, export, paired_steps  # noqa: E402
import workloads  # noqa: E402  (puts this checkout's src on sys.path)

WARMUP, CHECK = 5, 10


def load(src: Path, name: str):
    """Import the package at src/mlswe under `name`."""
    pkg = src / "mlswe"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def spec_of(m, case: str):
    """The spec `workloads.case` builds with the package m bound as mlswe."""
    saved = sys.modules["mlswe"]
    sys.modules["mlswe"] = m
    try:
        return workloads.case(case)
    finally:
        sys.modules["mlswe"] = saved


class Side:
    """One package stepping one case from its initial state."""

    def __init__(self, m, case: str):
        self.m, self.spec = m, spec_of(m, case)
        self.grid, self.state = m.build_problem(self.spec)
        cls = m.RK3Integrator if self.spec.integrator == "rk3" else m.IMEXIntegrator
        self.integ = cls(self.grid, limiter=self.spec.limiter)
        self.t = 0.0
        self.courant = m.courant_numbers(self.state, self.grid, 1.0)

    def run(self, steps: int) -> float:
        """Take `steps` steps; return the seconds they took."""
        m, spec, grid = self.m, self.spec, self.grid
        t0 = time.perf_counter()
        for _ in range(steps):
            dt = spec.dt if spec.dt is not None else m.courant_dt(
                self.courant[0], spec.target_ccel)
            self.state = self.integ.step(self.state, self.t, dt)
            self.t += dt
            self.courant = m.courant_numbers(self.state, grid, 1.0)
        return time.perf_counter() - t0

    def snapshot(self) -> bytes:
        s = self.state
        return b"".join(a.tobytes() for a in (np.float64(self.t), s.eta, s.u, s.rho))


def compare(parent_src: Path, cases, blocks: int, steps: int) -> dict:
    """case -> (median change/parent block-time ratio, the interquartile
    range of those ratios, blocks won, blocks, whether the states are
    byte-equal after the CHECK steps and after the blocks), in this process,
    with its BLAS settings."""
    import mlswe
    parent = load(Path(parent_src), "mlswe_parent")
    results = {}
    for case in cases:
        sides = {"parent": Side(parent, case), "change": Side(mlswe, case)}
        for side in sides.values():
            side.run(WARMUP)
        for side in sides.values():
            side.run(CHECK)
        same = sides["parent"].snapshot() == sides["change"].snapshot()
        times = {name: [] for name in sides}
        for i in range(blocks):
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                times[name].append(sides[name].run(steps))
        ratios = [c / p for c, p in zip(times["change"], times["parent"])]
        same = same and sides["parent"].snapshot() == sides["change"].snapshot()
        q1, _, q3 = statistics.quantiles(ratios)
        results[case] = (statistics.median(ratios), q3 - q1, sum(r < 1.0 for r in ratios),
                         blocks, same)
    return results


def summary(results: dict, steps: int) -> list:
    """Two lines per case of `compare`'s results: the timing, then the states."""
    lines = []
    for case, (ratio, iqr, won, blocks, same) in results.items():
        lines += [f"{case}: change/parent {ratio:.3f} (median of {blocks} blocks of "
                  f"{steps} steps, IQR {iqr:.3f}), change faster in {won}/{blocks}",
                  f"{case}: states {'byte-equal after' if same else 'differ within'} "
                  f"{WARMUP + CHECK + blocks * steps} steps"]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", metavar="REF", required=True,
                   help="the git commit to time against")
    p.add_argument("--case", action="append", choices=workloads.WORKLOADS,
                   help="a benchmark case (repeatable; default all)")
    p.add_argument("--blocks", type=int, default=STEP_AB_BLOCKS,
                   help="alternated blocks per side (at least 30)")
    p.add_argument("--steps", type=int, default=STEP_AB_STEPS, help="steps per block")
    args = p.parse_args(argv)
    if args.blocks < 30 or args.steps < 1:
        p.error("need at least 30 blocks of at least 1 step")
    with tempfile.TemporaryDirectory(prefix="step_ab_") as tmp:
        export(args.parent, Path(tmp))
        results = paired_steps(ROOT, Path(tmp) / "src",
                               args.case or list(workloads.WORKLOADS),
                               args.blocks, args.steps)
    print("\n".join(summary(results, args.steps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
