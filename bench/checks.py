"""Output checks of the benchmark workloads.

Every quantity checked here is computed by this file from the program's
outputs (the CSV files it wrote, or the states `run_case` returned) and the
case's inputs (mesh, layer fractions, time step). The program's own
diagnostics (`RunReport`, `courant_numbers`, `front_speed`, ...) are not
used. Each check gives a `Check`; a run is correct when all of them pass.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

G = 9.81
RHO_MAX = 0.03                 # density contrast of all three cases
VOLUME_TOL = 1e-11             # relative, closed domains
DENSITY_CONTENT_TOL = 1e-10    # relative, closed domains
CSV_COLUMNS = ["t", "x", "layer", "field", "value"]


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class Snapshots:
    """A run's saved states as arrays over snapshots k.

    eta (K, M), u (K, n_max, M+1), rho (K, n_max, M); entries above the
    local layer count are zero. `rows` holds the data-row count of each
    CSV file when the run was read back from CSV.
    """

    times: np.ndarray
    eta: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    rows: list | None = None


@dataclass
class Geometry:
    """The inputs the checks need: bathymetry b (M,), cell widths dx (M,),
    layer fractions at interfaces l_half (n_max, M+1) and at cells
    l_int (n_max, M), both zero above the local layer count."""

    b: np.ndarray
    dx: np.ndarray
    l_half: np.ndarray
    l_int: np.ndarray


def from_states(times, states) -> Snapshots:
    return Snapshots(times=np.asarray(times, dtype=float),
                     eta=np.array([s.eta for s in states]),
                     u=np.array([s.u for s in states]),
                     rho=np.array([s.rho for s in states]))


def read_csv_run(run_dir) -> Snapshots:
    """Read every snapshot_*.csv of a run directory with the csv module.

    Only well-formed rows count. A free-surface value missing from a file
    reads as NaN, a velocity or density value as zero; the row count
    catches either.
    """
    files = []
    for path in sorted(Path(run_dir).glob("snapshot_*.csv")):
        with open(path, newline="") as f:
            reader = csv.reader(f)
            if next(reader, None) != CSV_COLUMNS:
                raise ValueError(f"{path.name}: unexpected header")
            files.append([r for r in reader if len(r) == len(CSV_COLUMNS)
                          and r[3] in ("eta", "u", "rho")])
    if not any(files):
        return Snapshots(np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0, 0)),
                         np.zeros((0, 0, 0)), rows=[len(r) for r in files])
    first = max(files, key=len)
    # positions are written with repr, so equal positions are equal strings
    cell = _index({r[1] for r in first if r[3] == "eta"})
    face = _index({r[1] for r in first if r[3] == "u"})
    n_max = max(int(r[2]) for r in first if r[3] != "eta")
    K, M = len(files), len(cell)
    eta = np.full((K, M), np.nan)
    u = np.zeros((K, n_max, M + 1))
    rho = np.zeros((K, n_max, M))
    times = np.full(K, np.nan)
    for k, rows in enumerate(files):
        where = {"eta": ([], [], [], cell), "u": ([], [], [], face),
                 "rho": ([], [], [], cell)}
        for t, x, layer, field, value in rows:
            layers, cols, values, index = where[field]
            layers.append(int(layer) - 1)
            cols.append(index[x])
            values.append(value)
        if rows:
            times[k] = float(rows[0][0])
        for field, target in (("eta", eta), ("u", u), ("rho", rho)):
            layers, cols, values, _ = where[field]
            idx = (k, cols) if field == "eta" else (k, layers, cols)
            target[idx] = np.array(values, dtype=float)
    return Snapshots(times, eta, u, rho, rows=[len(r) for r in files])


def _index(positions) -> dict:
    return {x: i for i, x in enumerate(sorted(positions, key=float))}


# ---------------------------------------------------------------------------
# quantities


def volumes(s: Snapshots, geo: Geometry) -> np.ndarray:
    """Water volume sum_i h_i dx_i of each snapshot."""
    return np.sum((s.eta - geo.b) * geo.dx, axis=1)


def density_contents(s: Snapshots, geo: Geometry) -> np.ndarray:
    """Density content sum_i sum_a rho l h dx of each snapshot."""
    h = s.eta - geo.b
    return np.sum(s.rho * geo.l_int * (h * geo.dx)[:, None, :], axis=(1, 2))


def courant(s: Snapshots, k: int, geo: Geometry, dt: float):
    """(C_cel, C_vel) of snapshot k: cell maxima of
    (|ubar| + sqrt((1 + rhobar) g h)) dt/dx and (|ubar| + sqrt(rhobar g h)) dt/dx,
    with ubar the depth-mean velocity averaged from the two faces of the
    cell and rhobar the depth-mean density."""
    h = s.eta[k] - geo.b
    ubar_face = np.sum(geo.l_half * s.u[k], axis=0)
    ubar = np.abs(0.5 * (ubar_face[:-1] + ubar_face[1:]))
    rhobar = np.sum(geo.l_int * s.rho[k], axis=0)
    c_cel = (ubar + np.sqrt(np.maximum(1.0 + rhobar, 0.0) * G * h)) * dt / geo.dx
    c_vel = (ubar + np.sqrt(np.maximum(rhobar, 0.0) * G * h)) * dt / geo.dx
    return float(np.max(c_cel)), float(np.max(c_vel))


def front_speeds(s: Snapshots, x_center, top_layer, window=(2.0, 10.0),
                 threshold=0.5 * RHO_MAX):
    """(bottom, surface) front speeds in m/s: least-squares slopes of the
    front positions against time inside the window. The bottom front is
    the leftmost crossing of the threshold by the bottom-layer density, the
    surface front the rightmost crossing by the top-layer density."""
    sel = (s.times >= window[0] - 1e-9) & (s.times <= window[1] + 1e-9)
    cols = np.arange(x_center.size)
    bottom, surface = [], []
    for k in np.nonzero(sel)[0]:
        bottom.append(_crossing(x_center, s.rho[k, 0], threshold, last=False))
        surface.append(_crossing(x_center, s.rho[k, top_layer, cols], threshold,
                                 last=True))
    t = s.times[sel]
    return _slope(t, np.array(bottom)), _slope(t, np.array(surface))


def _crossing(x, values, threshold, last: bool) -> float:
    above = values >= threshold
    idx = np.nonzero(above[1:] != above[:-1])[0]
    if idx.size == 0:
        return np.nan
    k = idx[-1] if last else idx[0]
    frac = (threshold - values[k]) / (values[k + 1] - values[k])
    return float(x[k] + frac * (x[k + 1] - x[k]))


def _slope(t, pos) -> float:
    ok = np.isfinite(pos)
    if np.count_nonzero(ok) < 2:
        return float("nan")
    t, pos = t[ok], pos[ok]
    tm = t - t.mean()
    return float(abs(np.sum(tm * (pos - pos.mean())) / np.sum(tm * tm)))


# ---------------------------------------------------------------------------
# checks


def _within(name, value, target, rel) -> Check:
    err = abs(value - target) / abs(target)
    return Check(name, bool(err <= rel),
                 f"{value:.6g} vs {target:.6g} (off by {err:.2%}, limit {rel:.0%})")


def _drift(name, series, tol) -> Check:
    drift = float(np.max(np.abs(series - series[0])) / abs(series[0]))
    return Check(name, bool(drift <= tol), f"max relative drift {drift:.3e} (limit {tol:.0e})")


def _density_range(s: Snapshots, allowance) -> Check:
    lo, hi = float(np.min(s.rho)), float(np.max(s.rho))
    ok = lo >= -allowance and hi <= RHO_MAX + allowance
    return Check("density_range", bool(ok),
                 f"rho in [{lo:.6g}, {hi:.8g}] (allowed [0, {RHO_MAX}] +- {allowance:.0e})")


INTERNAL_WAVE_CHECKS = ("snapshot_count", "rows_per_snapshot", "volume",
                        "density_content", "c_cel_at_4.8s", "c_vel_at_4.8s",
                        "density_range")


def check_internal_wave(s: Snapshots, geo: Geometry, dt: float,
                        n_snapshots: int, rows_per_snapshot: int) -> list:
    """Checks of `mlswe run internal_wave`, read back from its CSV files."""
    k48 = np.nonzero(np.abs(s.times - 4.8) < 1e-6)[0]
    if k48.size == 0:
        return [Check(name, False, "no snapshot at t = 4.8 s")
                for name in INTERNAL_WAVE_CHECKS]
    c_cel, c_vel = courant(s, int(k48[0]), geo, dt)
    return [
        Check("snapshot_count", len(s.times) == n_snapshots,
              f"{len(s.times)} files (expected {n_snapshots})"),
        Check("rows_per_snapshot", all(r == rows_per_snapshot for r in s.rows),
              f"rows {sorted(set(s.rows))} (expected {rows_per_snapshot})"),
        _drift("volume", volumes(s, geo), VOLUME_TOL),
        _drift("density_content", density_contents(s, geo), DENSITY_CONTENT_TOL),
        _within("c_cel_at_4.8s", c_cel, 7.0, 0.05),
        _within("c_vel_at_4.8s", c_vel, 0.91, 0.05),
        # the linearized IMEX density update may overshoot slightly
        _density_range(s, allowance=1e-3 * RHO_MAX),
    ]


def check_lock_exchange(s: Snapshots, geo: Geometry, x_center) -> list:
    """Checks of the lock exchange under SSP-RK3 (conservative update)."""
    top = geo.l_int.shape[0] - 1
    bottom, surface = front_speeds(s, x_center, top)
    return [
        _drift("volume", volumes(s, geo), VOLUME_TOL),
        _drift("density_content", density_contents(s, geo), DENSITY_CONTENT_TOL),
        _density_range(s, allowance=1e-13),
        _within("front_speed_bottom", bottom, 0.145, 0.15),
        _within("front_speed_surface", surface, 0.095, 0.15),
    ]


def check_tidal(s: Snapshots, geo: Geometry, dt: float, h_min: float) -> list:
    """Checks of the tidal run (open domain: nothing is conserved)."""
    finite = all(np.all(np.isfinite(a)) for a in (s.eta, s.u, s.rho))
    h = s.eta - geo.b
    min_h = float(np.min(h)) if finite else float("nan")
    c_cel = max(courant(s, k, geo, dt)[0] for k in range(len(s.times)))
    return [
        Check("finite", bool(finite), "all fields finite" if finite else "non-finite values"),
        Check("depth", bool(min_h > h_min), f"min depth {min_h:.6g} m (h_min {h_min:g})"),
        _within("max_c_cel", c_cel, 10.7, 0.05),
        # IMEX overshoot measured at 0.8% of the contrast
        _density_range(s, allowance=0.02 * RHO_MAX),
    ]
