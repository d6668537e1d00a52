"""One round of one benchmark workload, in a fresh interpreter.

    python3 bench/workloads.py --workload NAME --out DIR [--trace]
    python3 bench/workloads.py --workload NAME --setup-only

A round runs the workload to its end, times it, checks its outputs and
prints one JSON line. `--setup-only` times `import mlswe` plus
`build_problem` and exits. `bench/run.py` starts these processes; the
module imports only the standard library at the top, so the set-up time
includes numpy and scipy.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

WORKLOADS = ("internal_wave_cli", "lock_exchange_rk3", "tidal_nvar4")


def case(name):
    """The CaseSpec a workload runs (all three are deterministic)."""
    import mlswe

    if name == "internal_wave_cli":     # what `mlswe run internal_wave` runs
        return mlswe.case_internal_wave()
    if name == "lock_exchange_rk3":
        return mlswe.case_lock_exchange(integrator="rk3", dt=None, target_ccel=0.9)
    if name == "tidal_nvar4":
        return mlswe.case_tidal(layout="nvar4", t_final=12 * 3600.0)
    raise KeyError(f"unknown workload {name!r}")


def setup_seconds(name) -> float:
    t0 = time.perf_counter()
    import mlswe

    mlswe.build_problem(case(name))
    return time.perf_counter() - t0


def checks_of(name, snaps) -> list:
    """The output checks of a workload on its saved states."""
    import mlswe
    import checks

    spec = case(name)
    grid, _ = mlswe.build_problem(spec)
    layout = grid.layout
    geo = checks.Geometry(b=grid.mesh.b, dx=grid.mesh.dx,
                          l_half=layout.l_half, l_int=layout.l_int)
    if name == "internal_wave_cli":
        return checks.check_internal_wave(
            snaps, geo, spec.dt,
            n_snapshots=round(spec.t_final / spec.output_interval) + 1,
            rows_per_snapshot=grid.mesh.M + int(layout.n_half.sum() + layout.n_int.sum()))
    if name == "lock_exchange_rk3":
        return checks.check_lock_exchange(snaps, geo, grid.mesh.x_center)
    return checks.check_tidal(snaps, geo, spec.dt, grid.h_min)


def run_round(name, out_dir, traced: bool) -> dict:
    import mlswe
    import mlswe.cli
    import checks
    from spans import ALL_LABELS, STEP, Tracer

    tracer = Tracer(ALL_LABELS if traced else (STEP,))
    with tracer:
        if name == "internal_wave_cli":
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                mlswe.cli.main(["run", "internal_wave", "--out", str(out_dir)])
            run_s = time.perf_counter() - t0
        else:
            spec = case(name)
            grid, state = mlswe.build_problem(spec)
            t0 = time.perf_counter()
            result = mlswe.run_case(spec, grid, state)
            run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if name == "internal_wave_cli":
        cp = configparser.ConfigParser()
        cp.read(Path(out_dir) / "report.ini")
        report = cp["report"] if cp.has_section("report") else {}
        snaps = checks.read_csv_run(out_dir)
        counts = {"steps": int(report.get("steps", 0)),
                  "unstable": report.get("verdict") != "completed",
                  "n_rhs": int(report.get("rhs_evaluations", 0)),
                  "n_implicit": int(report.get("implicit_solves", 0)),
                  "csv_bytes": sum(p.stat().st_size for p in Path(out_dir).glob("*")),
                  "csv_rows": sum(snaps.rows)}
    else:
        r = result.report
        snaps = checks.from_states(result.times, result.states)
        counts = {"steps": r.steps, "unstable": r.verdict != "completed",
                  "n_rhs": r.n_rhs, "n_implicit": r.n_implicit,
                  "csv_bytes": 0, "csv_rows": 0}
    return {"run_s": run_s, "peak_rss_mb": peak_rss_mb,
            "step_s": tracer.stats[STEP].durations,
            "trace": {k: [s.calls, s.total, s.own] for k, s in tracer.stats.items()},
            "checks": [[c.name, c.passed, c.detail] for c in checks_of(name, snaps)],
            **counts}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--out", help="scratch directory for the CSV output")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if args.setup_only:
        result = {"setup_s": setup_seconds(args.workload)}
    else:
        if args.out is None:
            p.error("--out is required for a round")
        result = run_round(args.workload, args.out, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
