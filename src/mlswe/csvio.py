"""CSV snapshot output and flat key-value run metadata.

One CSV file per snapshot with columns (t, x, layer, field, value); floats
are serialized with repr so they round-trip exactly. The output root comes
from the MLSWE_OUTPUT_ROOT environment variable unless a directory is given
explicitly.
"""

from __future__ import annotations

import configparser
import csv
import os
from pathlib import Path

from .harness import RunReport, RunResult

OUTPUT_ROOT_ENV = "MLSWE_OUTPUT_ROOT"
SNAPSHOT_COLUMNS = ("t", "x", "layer", "field", "value")


def output_root(explicit=None) -> Path:
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "."))


def _fmt(v) -> str:
    return repr(float(v))


def write_snapshot(path, t, state, grid) -> None:
    """Write one state as rows (t, x, layer, field, value), byte for byte as
    the csv module's writer would (no field needs quoting, CRLF line ends).
    Rows are formatted a column at a time, so no copy of the file is held."""
    mesh, layout = grid.mesh, grid.layout
    ts = _fmt(t)
    xc = [f"{ts},{x!r}," for x in mesh.x_center.tolist()]
    xi = [f"{ts},{x!r}," for x in mesh.x_iface.tolist()]
    with open(path, "w", newline="") as f:
        f.write(",".join(SNAPSHOT_COLUMNS) + "\r\n")
        f.writelines([f"{x}0,eta,{v!r}\r\n" for x, v in zip(xc, state.eta.tolist())])
        for name, xs, counts, values in (
                ("u", xi, layout.n_half.tolist(), state.u.T),
                ("rho", xc, layout.n_int.tolist(), state.rho.T)):
            for x, n, column in zip(xs, counts, values):
                f.writelines([f"{x}{a},{name},{v!r}\r\n"
                              for a, v in enumerate(column[:n].tolist(), 1)])


def read_snapshot(path):
    """Read a snapshot CSV into (t, {field: {(x, layer): value}})."""
    fields: dict = {}
    t = None
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r)
        if tuple(header) != SNAPSHOT_COLUMNS:
            raise ValueError(f"unexpected snapshot header {header!r}")
        for row in r:
            t = float(row[0])
            fields.setdefault(row[3], {})[(float(row[1]), int(row[2]))] = float(row[4])
    return t, fields


def write_report(path, report: RunReport) -> None:
    cp = configparser.ConfigParser()
    cp["report"] = {
        "case": report.case,
        "integrator": report.integrator,
        "steps": str(report.steps),
        "rhs_evaluations": str(report.n_rhs),
        "implicit_solves": str(report.n_implicit),
        "wall_time": _fmt(report.wall_time),
        "verdict": report.verdict,
        "t_end": _fmt(report.t_end),
        "max_ccel": _fmt(report.max_ccel),
        "max_cvel": _fmt(report.max_cvel),
        "volume_drift": _fmt(report.volume_drift),
        "density_mass_drift": _fmt(report.density_mass_drift),
    }
    with open(path, "w") as f:
        cp.write(f)


def read_report(path) -> dict:
    cp = configparser.ConfigParser()
    with open(path) as f:
        cp.read_file(f)
    return {s: dict(cp[s]) for s in cp.sections()}


def write_case_metadata(path, spec) -> None:
    cp = configparser.ConfigParser()
    cp["case"] = {
        "name": spec.name,
        "x_min": _fmt(spec.x_min),
        "x_max": _fmt(spec.x_max),
        "cells": str(spec.M),
        "eta0": _fmt(spec.eta0),
        "integrator": spec.integrator,
        "dt": "" if spec.dt is None else _fmt(spec.dt),
        "target_ccel": "" if spec.target_ccel is None else _fmt(spec.target_ccel),
        "t_final": _fmt(spec.t_final),
        "limiter": str(spec.limiter),
        "output_interval": _fmt(spec.output_interval),
    }
    with open(path, "w") as f:
        cp.write(f)


def write_run(result: RunResult, out_dir) -> Path:
    """Write snapshots, metadata and the run report under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, (t, state) in enumerate(zip(result.times, result.states)):
        write_snapshot(out / f"snapshot_{k:05d}.csv", t, state, result.grid)
    write_case_metadata(out / "case.ini", result.spec)
    write_report(out / "report.ini", result.report)
    return out


def load_run_states(run_dir):
    """(times, snapshot dicts) from a run directory, ordered by index."""
    run = Path(run_dir)
    paths = sorted(run.glob("snapshot_*.csv"))
    if not paths:
        raise FileNotFoundError(f"no snapshots in {run}")
    times = []
    snaps = []
    for p in paths:
        t, fields = read_snapshot(p)
        times.append(t)
        snaps.append(fields)
    return times, snaps
