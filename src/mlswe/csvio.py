"""CSV snapshot output and flat key-value run metadata.

One CSV file per snapshot with columns (t, x, layer, field, value); floats
are serialized with repr so they round-trip exactly. `write_run_dir` is the
one writer of a run directory: it writes each snapshot as it comes, from a
live run (`harness.stream_case`) or a finished one (`write_run`), then
`case.ini` and `report.ini`. `run_snapshots` indexes a run directory by the
time in each file's first row, so a reader parses only the files it needs.
The output root comes from the MLSWE_OUTPUT_ROOT environment variable unless
a directory is given explicitly.
"""

from __future__ import annotations

import configparser
import csv
import os
from pathlib import Path

from .harness import RunReport, RunResult

OUTPUT_ROOT_ENV = "MLSWE_OUTPUT_ROOT"
SNAPSHOT_COLUMNS = ("t", "x", "layer", "field", "value")
_HEADER = ",".join(SNAPSHOT_COLUMNS) + "\r\n"
_T = "{t}"  # the time in a row template, replaced once per block


def output_root(explicit=None) -> Path:
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "."))


def _fmt(v) -> str:
    return repr(float(v))


def _snapshot_blocks(grid) -> list:
    """The grid-static rows of a snapshot as (template, field, index)
    blocks: eta, then each interface's u column and each cell's rho column.
    A template's rows have the marker _T for t and %r for the value, so `%`
    fills it from the values `state.<field>[index]`."""
    mesh, layout = grid.mesh, grid.layout
    xc, xi = mesh.x_center.tolist(), mesh.x_iface.tolist()
    blocks = [("".join(f"{_T},{x!r},0,eta,%r\r\n" for x in xc), "eta", slice(None))]
    for name, xs, counts in (("u", xi, layout.n_half.tolist()),
                             ("rho", xc, layout.n_int.tolist())):
        blocks += [("".join(f"{_T},{x!r},{a},{name},%r\r\n" for a in range(1, n + 1)),
                    name, (slice(n), j)) for j, (x, n) in enumerate(zip(xs, counts))]
    return blocks


def _write_blocks(path, t, state, blocks) -> None:
    ts = _fmt(t)
    with open(path, "w", newline="") as f:
        f.write(_HEADER)
        for template, name, index in blocks:
            f.write(template.replace(_T, ts) % tuple(getattr(state, name)[index].tolist()))


def write_snapshot(path, t, state, grid) -> None:
    """Write one state as rows (t, x, layer, field, value), byte for byte as
    the csv module's writer would (no field needs quoting, CRLF line ends).
    Each column block is formatted and written on its own, so no copy of
    the file is held."""
    _write_blocks(path, t, state, _snapshot_blocks(grid))


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
    cp = configparser.ConfigParser(interpolation=None)
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
        "failure": report.failure,
    }
    with open(path, "w") as f:
        cp.write(f)


def read_report(path) -> dict:
    cp = configparser.ConfigParser(interpolation=None)
    with open(path) as f:
        cp.read_file(f)
    return {s: dict(cp[s]) for s in cp.sections()}


def write_case_metadata(path, spec) -> None:
    cp = configparser.ConfigParser(interpolation=None)
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


def write_run_dir(out_dir, spec, grid, snapshots, report) -> Path:
    """Write each (t, state) of `snapshots` as it comes, then the case
    metadata and the run report, under out_dir. `report` is read after the
    last snapshot, so a live run (`harness.stream_case`) is written as it is
    taken, with its complete report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    blocks = _snapshot_blocks(grid)
    k = 0
    for t, state in snapshots:  # enumerate would keep each state until the next
        _write_blocks(out / f"snapshot_{k:05d}.csv", t, state, blocks)
        del state  # the run steps on from here: hold no second state meanwhile
        k += 1
    write_case_metadata(out / "case.ini", spec)
    write_report(out / "report.ini", report)
    return out


def write_run(result: RunResult, out_dir) -> Path:
    """Write a finished run's snapshots, metadata and report under out_dir."""
    return write_run_dir(out_dir, result.spec, result.grid,
                         zip(result.times, result.states), result.report)


def run_snapshots(run_dir):
    """(times, paths) of a run directory's snapshots, ordered by index; each
    time is read from its file's first data row."""
    run = Path(run_dir)
    paths = sorted(run.glob("snapshot_*.csv"), key=lambda p: int(p.stem.split("_")[1]))
    if not paths:
        raise FileNotFoundError(f"no snapshots in {run}")
    times = []
    for p in paths:
        with open(p, newline="") as f:
            f.readline()  # the header; read_snapshot checks it
            times.append(float(f.readline().split(",", 1)[0]))
    return times, paths
