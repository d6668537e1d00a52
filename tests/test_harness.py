import time
import tracemalloc
import weakref

import numpy as np
import pytest

import mlswe as m
from mlswe import csvio, harness
from mlswe.harness import RunResult


def small_grid(M=60, n_layers=2, x_min=0.0, x_max=6.0, eta0=0.3):
    mesh = m.build_mesh(x_min, x_max, M)
    layout = m.uniform_layout(mesh, n_layers)
    grid = m.Grid(mesh=mesh, layout=layout, params=m.PhysParams())
    state = m.rest_state(mesh, layout, eta0)
    return grid, state


# ---------------------------------------------------------------------------
# error norms


def test_error_norms_identity_is_zero():
    grid, state = small_grid()
    state.u[:] = 0.2
    state.rho[:] = 0.03
    errs = m.error_norms(state, state, grid)
    assert all(v == 0.0 for v in errs.values())


def test_error_norms_are_homogeneous_in_the_difference():
    grid, ref = small_grid()
    x = grid.mesh.x_center
    ref.eta += 0.01 * np.sin(x)
    ref.u += 0.1 * np.cos(grid.mesh.x_iface)[None, :]
    ref.rho += 0.02 + 0.01 * np.sin(x)[None, :]

    rng = np.random.default_rng(9)
    d_eta = 1e-3 * rng.standard_normal(ref.eta.shape)
    d_u = 1e-3 * rng.standard_normal(ref.u.shape)
    d_rho = 1e-3 * rng.standard_normal(ref.rho.shape)

    def perturbed(scale):
        return m.State(ref.eta + scale * d_eta, ref.u + scale * d_u,
                       ref.rho + scale * d_rho)

    e1 = m.error_norms(perturbed(1.0), ref, grid)
    e2 = m.error_norms(perturbed(0.5), ref, grid)
    for k in e1:
        assert e2[k] == pytest.approx(0.5 * e1[k], rel=1e-12)


def test_error_norms_weighting_ignores_masked_layers():
    """In mixed-layer-count columns the inactive rows carry zero weight."""
    mesh = m.build_mesh(0.0, 1.0, 10)
    layout = m.build_layout(mesh, [(0.5, [1.0]), (np.inf, [0.5, 0.5])])
    grid = m.Grid(mesh=mesh, layout=layout, params=m.PhysParams())
    ref = m.rest_state(mesh, layout, 1.0)
    ref.rho[:] = np.where(layout.active_int(), 0.03, 0.0)
    other = ref.copy()
    other.rho = np.where(layout.active_int(), 0.04, 12345.0)
    errs = m.error_norms(other, ref, grid)
    assert errs["rho_l2"] == pytest.approx(0.01 / 0.03, rel=1e-12)
    assert errs["rho_linf"] == pytest.approx(0.01 / 0.03, rel=1e-12)


def test_error_norms_shape_mismatch():
    grid, state = small_grid(n_layers=2)
    grid3, state3 = small_grid(n_layers=3)
    with pytest.raises(ValueError):
        m.error_norms(state, state3, grid)


# ---------------------------------------------------------------------------
# layout projection


def test_project_state_identity():
    grid, state = small_grid(n_layers=3)
    rng = np.random.default_rng(1)
    state.u += rng.standard_normal(state.u.shape)
    state.rho += rng.standard_normal(state.rho.shape)
    out = m.project_state(state, grid.layout, grid.layout, grid.mesh)
    assert np.array_equal(out.u, state.u)
    assert np.array_equal(out.rho, state.rho)


def test_project_state_refines_parents_into_children():
    mesh = m.build_mesh(0.0, 1.0, 4)
    coarse = m.build_layout(mesh, np.array([0.5, 0.5]))
    fine = m.build_layout(mesh, np.array([0.25, 0.25, 0.25, 0.25]))
    state = m.rest_state(mesh, coarse, 1.0)
    state.u[0, :] = 1.0
    state.u[1, :] = 2.0
    state.rho[0, :] = 0.01
    state.rho[1, :] = 0.02
    out = m.project_state(state, coarse, fine, mesh)
    assert np.array_equal(out.u[:2], np.ones((2, 5)))
    assert np.array_equal(out.u[2:], 2 * np.ones((2, 5)))
    assert np.all(out.rho[:2] == 0.01) and np.all(out.rho[2:] == 0.02)


# ---------------------------------------------------------------------------
# front tracking


def make_translating_result(speed, threshold=0.015):
    """Synthetic lock-exchange-like result: a density step translating at a
    known speed; the front-speed fit must recover it."""
    grid, state0 = small_grid(M=300, n_layers=2, x_min=-10.0, x_max=10.0)
    times = np.arange(0.0, 10.5, 0.5)
    states = []
    x = grid.mesh.x_center
    for t in times:
        s = state0.copy()
        # dense fluid occupies [-2 - speed*t, 2 + speed*t]
        inside = (np.abs(x) <= 2.0 + speed * t)
        s.rho[:, :] = np.where(inside, 0.03, 0.0)[None, :]
        states.append(s)
    spec = m.case_lock_exchange()
    return RunResult(spec=spec, grid=grid, times=list(times),
                     states=states, report=None)


def test_front_speed_recovers_translation():
    speed = 0.12
    result = make_translating_result(speed)
    top, bot = m.front_speed(result)
    # piecewise-constant fronts move in cell-size quanta; the least-squares
    # fit over the window recovers the speed to within half a cell per window
    dx = result.grid.mesh.dx[0]
    assert top == pytest.approx(speed, abs=dx)
    assert bot == pytest.approx(speed, abs=dx)


def test_front_positions_initial_edges():
    result = make_translating_result(0.1)
    t, tops, bots = m.front_positions(result)
    assert t[0] == 0.0
    assert tops[0] == pytest.approx(2.0, abs=result.grid.mesh.dx[0])
    assert bots[0] == pytest.approx(-2.0, abs=result.grid.mesh.dx[0])


def test_front_speed_nan_without_front():
    grid, state = small_grid()
    spec = m.case_lock_exchange()
    result = RunResult(spec=spec, grid=grid, times=[0.0, 5.0],
                       states=[state, state.copy()], report=None)
    top, bot = m.front_speed(result)
    assert np.isnan(top) and np.isnan(bot)


# ---------------------------------------------------------------------------
# run orchestration


def test_run_case_snapshots_and_determinism():
    spec = m.case_internal_wave(t_final=0.8, output_interval=0.4)
    r1 = m.run_case(spec)
    r2 = m.run_case(spec)
    assert r1.report.verdict == "completed"
    assert r1.times == pytest.approx([0.0, 0.4, 0.8])
    assert np.array_equal(r1.states[-1].u, r2.states[-1].u)
    assert np.array_equal(r1.states[-1].rho, r2.states[-1].rho)
    assert r1.report.steps == 20
    assert r1.report.n_rhs == 3 * 20 and r1.report.n_implicit == 2 * 20
    state = r1.state_at(0.4)
    assert state is r1.states[1]
    with pytest.raises(KeyError):
        r1.state_at(0.123)


def test_run_case_flags_instability():
    spec = m.case_internal_wave(dt=0.2, t_final=4.0)
    result = m.run_case(spec)
    assert result.report.verdict == "unstable"


@pytest.mark.parametrize("kwargs, steps, t_end, n_rhs, failure", [
    # acceptance 06's onset run: the velocity bound on the result of step 54
    # ends it, after all three of its right-hand sides
    (dict(dt=0.09, t_final=10.0, output_interval=4.8), 53, 4.77, 3 * 54,
     "step 54 at t=4.769999999999997: |u| beyond 1000 at u[24, 197]: -688736"),
    # at the default cadence the depth check of step 29's second implicit
    # stage ends it, before that stage's right-hand side
    (dict(dt=0.09), 28, 2.27, 3 * 28 + 2,
     "step 29 at t=2.2699999999999996: depth at or below h_min=1e-06 at "
     "eta[46]: -1.34515"),
], ids=["acceptance_06", "stage_depth"])
def test_unstable_run_reports_where_it_failed(kwargs, steps, t_end, n_rhs, failure):
    report = m.run_case(m.case_internal_wave(**kwargs)).report
    assert report.verdict == "unstable"
    assert report.steps == steps and report.t_end == pytest.approx(t_end)
    assert report.n_rhs == n_rhs and report.failure == failure


def test_completed_run_reports_no_failure():
    report = m.run_case(m.case_internal_wave(t_final=0.4)).report
    assert report.verdict == "completed" and report.failure == ""


def test_non_finite_start_is_named_before_a_step():
    """A NaN in rho spreads into u (RK3) or eta (IMEX, through the implicit
    solve) within one step, so the start is checked before the first."""
    spec = m.case_internal_wave(M=20)
    grid, state = m.build_problem(spec)
    state.rho[3, 7] = np.nan
    with pytest.raises(m.StepFailure) as failure:
        m.stream_case(spec, grid, state)
    f = failure.value
    assert (f.reason, f.field, f.layer, f.column) == ("non-finite value", "rho", 3, 7)
    assert np.isnan(f.value) and "rho[3, 7]" in str(f)


def test_streamed_run_holds_no_list_of_states(tmp_path):
    """Written as it is taken, a run keeps no snapshot: 41 snapshots of the
    same 40 steps peak less than one state above 3."""
    def streamed(interval, out):
        spec = m.case_internal_wave(t_final=1.6, output_interval=interval)
        tracemalloc.start()
        try:
            grid, report, snapshots = m.stream_case(spec)
            csvio.write_run_dir(out, spec, grid, snapshots, report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "completed" and report.steps == 40
        return len(list(out.glob("snapshot_*.csv"))), peak

    state = m.build_problem(m.case_internal_wave())[1]
    state_bytes = state.eta.nbytes + state.u.nbytes + state.rho.nbytes
    streamed(0.8, tmp_path / "warm-up")
    few, many = streamed(0.8, tmp_path / "few"), streamed(0.04, tmp_path / "many")
    assert (few[0], many[0]) == (3, 41)
    assert many[1] - few[1] < state_bytes


@pytest.mark.parametrize("consumer", ["write_run_dir", "run_case"])
def test_no_snapshot_outlives_the_step_past_it(tmp_path, monkeypatch, consumer):
    """A consumer lets go of each yielded state before the run steps on, so
    between snapshots a run holds the state it steps from and no other."""
    yielded, held = [], []
    step = m.IMEXIntegrator.step

    def watched_step(self, state, t, dt):
        held.append(sum(r() is not None and r() is not state for r in yielded))
        return step(self, state, t, dt)

    def watch(snapshot):
        yielded.append(weakref.ref(snapshot[1]))
        return snapshot

    def watched_stream(*args):
        grid, report, snapshots = stream(*args)
        return grid, report, map(watch, snapshots)

    stream = harness.stream_case
    monkeypatch.setattr(m.IMEXIntegrator, "step", watched_step)
    monkeypatch.setattr(harness, "stream_case", watched_stream)
    spec = m.case_internal_wave(M=20, t_final=0.2, output_interval=0.08)
    if consumer == "run_case":
        m.run_case(spec)
    else:
        grid, report, snapshots = harness.stream_case(spec)
        csvio.write_run_dir(tmp_path, spec, grid, snapshots, report)
    assert len(yielded) == 4 and held == [0] * 5


def test_wall_time_is_stepping_time_only():
    """A consumer that sleeps between snapshots does not lengthen the
    reported wall time."""
    spec = m.case_internal_wave(M=20, t_final=0.2, output_interval=0.04)
    _, report, snapshots = m.stream_case(spec)
    pause = 0.1
    taken = 0
    for _ in snapshots:
        time.sleep(pause)
        taken += 1
    assert taken == 6 and report.steps == 5
    assert 0.0 < report.wall_time < taken * pause / 2


def test_run_case_adaptive_respects_target():
    spec = m.case_internal_wave(dt=None, target_ccel=0.5, t_final=0.5,
                                output_interval=0.5)
    result = m.run_case(spec)
    assert result.report.verdict == "completed"
    # the step is chosen on the pre-step state, so the post-step Courant
    # number may exceed the target only marginally
    assert result.report.max_ccel <= 0.5 * 1.01


def test_density_mass_drift_from_an_empty_start():
    """The tidal case starts without density and takes it in at the open
    boundary: the drift relative to the larger content is 1 (it used to
    divide by the zero start and report about 1e32). Two empty contents
    report 0."""
    result = m.run_case(m.case_tidal(layout="uniform", M=40, t_final=1800.0,
                                     output_interval=1800.0))
    assert result.report.verdict == "completed"
    assert result.report.density_mass_drift == 1.0

    def no_density(x, layout):
        return np.zeros((layout.n_max, x.size))

    empty = m.run_case(m.case_lock_exchange(M=20, t_final=0.5, rho0=no_density))
    assert empty.report.verdict == "completed"
    assert empty.report.density_mass_drift == 0.0
