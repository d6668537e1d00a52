"""Reference figures quoted in bench/README.md, outside the timed benchmark.

    python3 bench/reference.py

Prints, for the box it runs on:
- tidal uniform against nvar4 (IMEX, dt = 20 s, 6 h): median ms per step
  and active layer-cells;
- internal wave, IMEX at dt = 0.04 s against SSP-RK3 at C_cel = 0.9, to
  t = 10 s: wall clock of each and their ratio;
- the line count of src/mlswe.
One thread, one process, numeric-library threads pinned to one.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import mlswe  # noqa: E402
from spans import STEP, Tracer  # noqa: E402


def timed(spec):
    """(wall seconds of run_case, median step ms, steps, active layer-cells)."""
    grid, state = mlswe.build_problem(spec)
    with Tracer((STEP,)) as tr:
        t0 = time.perf_counter()
        result = mlswe.run_case(spec, grid, state)
        wall = time.perf_counter() - t0
    if result.report.verdict != "completed":
        raise RuntimeError(f"{spec.name}: {result.report.verdict}")
    return (wall, 1e3 * statistics.median(tr.stats[STEP].durations),
            result.report.steps, int(grid.layout.n_int.sum()))


def main() -> int:
    for layout in ("uniform", "nvar4"):
        wall, ms, steps, cells = timed(mlswe.case_tidal(layout=layout, t_final=6 * 3600.0))
        print(f"tidal_{layout}: {ms:.3f} ms/step (median of {steps}), "
              f"{cells} active layer-cells, {wall:.2f} s")
    imex = timed(mlswe.case_internal_wave())
    rk3 = timed(mlswe.case_internal_wave(integrator="rk3", dt=None, target_ccel=0.9))
    print(f"internal_wave to 10 s: IMEX {imex[0]:.2f} s ({imex[2]} steps), "
          f"RK3 at C_cel 0.9 {rk3[0]:.2f} s ({rk3[2]} steps), "
          f"RK3/IMEX wall clock {rk3[0] / imex[0]:.2f}")
    src = BENCH.parent / "src" / "mlswe"
    lines = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    print(f"src/mlswe: {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
