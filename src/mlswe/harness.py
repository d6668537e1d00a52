"""Run orchestration: the stepping loop (`stream_case` yields each snapshot
as it is taken, `run_case` keeps them), error norms, front-speed measurement
and layout projection for mixed-layer-count comparisons."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cases import CaseSpec, build_problem
from .integrators import INTEGRATORS, courant_dt, courant_numbers
from .layers import LayerLayout, refine_parent
from .spatial import Grid
from .state import State, StepFailure, total_density_mass, total_volume


@dataclass
class RunReport:
    case: str
    integrator: str
    steps: int = 0
    n_rhs: int = 0
    n_implicit: int = 0
    wall_time: float = 0.0
    verdict: str = "completed"          # or "unstable"
    t_end: float = 0.0
    max_ccel: float = 0.0
    max_cvel: float = 0.0
    volume_drift: float = 0.0           # relative, vs initial
    density_mass_drift: float = 0.0
    failure: str = ""                   # where an unstable run failed


@dataclass
class RunResult:
    spec: CaseSpec
    grid: Grid
    times: list
    states: list
    report: RunReport

    def state_at(self, t: float) -> State:
        k = int(np.argmin(np.abs(np.asarray(self.times) - t)))
        if abs(self.times[k] - t) > 1e-6 * max(1.0, abs(t)):
            raise KeyError(f"no snapshot near t={t}")
        return self.states[k]


def stream_case(spec: CaseSpec, grid: Grid | None = None,
                state: State | None = None):
    """(grid, report, snapshots) of a run not yet started. Iterating
    `snapshots` steps the case to t_final, yielding the run's own (t, state)
    at the output cadence: the start first, then the final state if it falls
    off the cadence. A consumer that still holds a yielded state when it
    asks for the next one keeps it alive beside the run's (`run_case` and
    `csvio.write_run_dir` drop it). `report` is complete once `snapshots` is
    exhausted; its wall_time counts stepping alone, not the consumer's time
    between snapshots. A step's StepFailure (a non-finite value, a dry cell,
    a runaway velocity) ends the run with the verdict "unstable" instead of
    raising, and `report.failure` says at which step and time, and where. A
    start state given here is validated first, named before a step can
    spread it: a non-finite value or a dry cell raises StepFailure, a
    nonzero velocity or density above the live layers, or a velocity that a
    step would close otherwise (`Grid.fix_columns`), ValueError.
    """
    if grid is None or state is None:
        grid, state = build_problem(spec)
    else:
        state.validate(grid.mesh, grid.layout)
        closed = grid.fix_columns(state.u.copy())  # courant_numbers reads the start
        if not np.array_equal(closed, state.u):
            k, j = np.argwhere(closed != state.u)[0]
            raise ValueError(f"u[{k}, {j}] = {state.u[k, j]:.6g}, but a step leaves "
                             f"{closed[k, j]:.6g} there")
    integ = INTEGRATORS[spec.integrator](grid, limiter=spec.limiter)
    report = RunReport(case=spec.name, integrator=spec.integrator)
    return grid, report, _advance(spec, grid, state, integ, report)


def _advance(spec, grid, state, integ, report):
    """The stepping loop behind `stream_case`."""
    vol0 = total_volume(state, grid.mesh)
    dm0 = total_density_mass(state, grid.mesh, grid.layout)

    t = t_out = 0.0
    yield t, state
    next_out = spec.output_interval
    t_start = time.perf_counter()
    eps = 1e-9 * max(spec.t_final, 1.0)
    # Courant numbers per unit dt, one evaluation per state: the next dt
    # under adaptive stepping and, times the step taken, the reported maxima
    courant = None if spec.dt is not None else courant_numbers(state, grid, 1.0)

    while t < spec.t_final - eps:
        if spec.dt is not None:
            dt = spec.dt
        else:
            dt = courant_dt(courant[0], spec.target_ccel)
        dt = min(dt, spec.t_final - t, next_out - t)
        try:
            state = integ.step(state, t, dt)
        except StepFailure as exc:
            report.verdict = "unstable"
            report.failure = f"step {report.steps + 1} at t={t!r}: {exc}"
            break
        t += dt
        report.steps += 1
        courant = courant_numbers(state, grid, 1.0)
        report.max_ccel = max(report.max_ccel, courant[0] * dt)
        report.max_cvel = max(report.max_cvel, courant[1] * dt)
        if t >= next_out - eps:
            paused = time.perf_counter()
            yield t, state
            t_start += time.perf_counter() - paused
            t_out = t
            next_out += spec.output_interval

    report.t_end = t
    report.wall_time = time.perf_counter() - t_start
    report.n_rhs = integ.n_rhs
    report.n_implicit = integ.n_implicit
    if report.verdict == "completed":
        vol1 = total_volume(state, grid.mesh)
        dm1 = total_density_mass(state, grid.mesh, grid.layout)
        report.volume_drift = abs(vol1 - vol0) / max(abs(vol0), 1e-300)
        # relative to the larger content: 1 from an empty start, 0 if both are empty
        scale = max(abs(dm0), abs(dm1))
        report.density_mass_drift = abs(dm1 - dm0) / scale if scale > 0 else 0.0
        if abs(t_out - t) > eps:
            yield t, state


def run_case(spec: CaseSpec, grid: Grid | None = None,
             state: State | None = None) -> RunResult:
    """Advance a case to t_final, keeping a copy of every snapshot of
    `stream_case` (see there)."""
    grid, report, snapshots = stream_case(spec, grid, state)
    times, states = [], []
    for t, s in snapshots:
        times.append(t)
        states.append(s.copy())
        del s  # the run steps on from here: hold no second state meanwhile
    return RunResult(spec=spec, grid=grid, times=times, states=states,
                     report=report)


# ---------------------------------------------------------------------------
# error norms


def error_norms(state: State, ref: State, grid: Grid) -> dict:
    """Relative errors vs a reference on the same mesh and layout.

    Velocity and density errors are h-weighted l2 norms (weight dx_i times
    the local layer thickness: a velocity's at the cell's right interface,
    in that interface's layering) and plain relative l-infinity norms; the
    free surface uses standard relative norms over the cells. A norm whose
    reference is 0 is left unnormalised.
    """
    mesh, layout = grid.mesh, grid.layout
    if state.eta.shape != ref.eta.shape or state.u.shape != ref.u.shape:
        raise ValueError("states live on different meshes/layouts")

    h_ref = ref.eta - mesh.b
    w = layout.l_int * h_ref[None, :] * mesh.dx[None, :]

    def relative(err, size):  # unnormalised where the reference is 0
        return float(err / size) if size > 0 else float(err)

    out = {}
    d_eta = state.eta - ref.eta
    out["eta_l2"] = float(np.sqrt(relative(np.sum(d_eta ** 2 * mesh.dx),
                                           np.sum(ref.eta ** 2 * mesh.dx))))
    out["eta_linf"] = relative(np.max(np.abs(d_eta)), np.max(np.abs(ref.eta)))

    # velocities sampled at the right interface of each cell
    du = state.u[:, 1:] - ref.u[:, 1:]
    uref = ref.u[:, 1:]
    w_u = layout.l_half[:, 1:] * h_ref[None, :] * mesh.dx[None, :]
    out["u_l2"] = float(np.sqrt(relative(np.sum(du ** 2 * w_u), np.sum(uref ** 2 * w_u))))
    out["u_linf"] = relative(np.max(np.abs(du)), np.max(np.abs(uref)))

    drho = np.where(layout.active_int(), state.rho - ref.rho, 0.0)
    rref = np.where(layout.active_int(), ref.rho, 0.0)
    out["rho_l2"] = float(np.sqrt(relative(np.sum(drho ** 2 * w), np.sum(rref ** 2 * w))))
    out["rho_linf"] = relative(np.max(np.abs(drho)), np.max(np.abs(rref)))
    return out


def project_state(state: State, layout_src: LayerLayout,
                  layout_dst: LayerLayout, mesh) -> State:
    """Re-express a state on a finer (or equal) target layout on the same
    mesh: each target layer copies its parent layer's velocity and density."""
    u = np.take_along_axis(
        state.u, refine_parent(layout_src.l_half, layout_dst.l_half), axis=0)
    rho = np.take_along_axis(
        state.rho, refine_parent(layout_src.l_int, layout_dst.l_int), axis=0)
    return State(eta=state.eta.copy(),
                 u=np.where(layout_dst.active_half(), u, 0.0),
                 rho=np.where(layout_dst.active_int(), rho, 0.0))


# ---------------------------------------------------------------------------
# front tracking


def _crossing(x, values, threshold, side: str) -> float:
    """Interpolated x where values cross the threshold; side selects the
    farthest crossing ("max" rightmost, "min" leftmost)."""
    v = np.asarray(values)
    above = v >= threshold
    idx = np.nonzero(above[:-1] != above[1:])[0]
    if idx.size == 0:
        return np.nan
    k = idx[-1] if side == "max" else idx[0]
    x0, x1 = x[k], x[k + 1]
    v0, v1 = v[k], v[k + 1]
    if v1 == v0:
        return 0.5 * (x0 + x1)
    return float(x0 + (threshold - v0) * (x1 - x0) / (v1 - v0))


def front_positions(result: RunResult, threshold: float = 0.015):
    """(times, surface positions, bottom positions) of the density front."""
    grid = result.grid
    x = grid.mesh.x_center
    tops, bots = [], []
    cols = np.arange(grid.mesh.M)
    top_idx = grid.layout.n_int - 1
    for s in result.states:
        rho_top = s.rho[top_idx, cols]
        rho_bot = s.rho[0, :]
        tops.append(_crossing(x, rho_top, threshold, "max"))
        bots.append(_crossing(x, rho_bot, threshold, "min"))
    return np.asarray(result.times), np.asarray(tops), np.asarray(bots)


def front_speed(result: RunResult, threshold: float = 0.015,
                window=(2.0, 10.0)):
    """(surface speed, bottom speed) in m/s by a least-squares fit of the
    front positions against time inside the window. NaN if no front."""
    t, tops, bots = front_positions(result, threshold)
    sel = (t >= window[0]) & (t <= window[1])

    def fit(pos):
        m = sel & np.isfinite(pos)
        if np.count_nonzero(m) < 2:
            return float("nan")
        slope = np.polyfit(t[m], pos[m], 1)[0]
        return float(abs(slope))

    return fit(tops), fit(bots)
