import numpy as np
import pytest

import mlswe as m
from mlswe.integrators import (build_implicit_workspace, implicit_residual,
                               implicit_stage_solve)
from mlswe.spatial import prepare_fields, viscous_coefficients, viscous_exchange
from mlswe.tridiag import thomas, thomas_factor
from test_step_reference import reference_runs


def smooth_periodic_problem(M=40, n_layers=1, amp=0.01):
    mesh = m.build_mesh(0.0, 1.0, M)
    layout = m.uniform_layout(mesh, n_layers)
    grid = m.Grid(mesh=mesh, layout=layout, params=m.PhysParams(),
                  bounds=m.periodic())
    state = m.rest_state(mesh, layout, eta0=1.0)
    state.eta += amp * np.sin(2 * np.pi * mesh.x_center)
    state.u += amp * np.cos(2 * np.pi * mesh.x_iface)[None, :]
    return grid, state


# ---------------------------------------------------------------------------
# tableau


def test_ark2_tableau_structure():
    tab = m.ark2_tableau()
    s2 = np.sqrt(2.0)
    assert np.allclose(tab.c, [0.0, 2.0 - s2, 1.0])
    # consistency and second-order conditions for both parts
    for a in (tab.a_ex, tab.a_im):
        assert np.allclose(np.sum(a, axis=1), tab.c)
    assert np.isclose(np.sum(tab.b), 1.0)
    assert np.isclose(np.dot(tab.b, tab.c), 0.5)
    # stiff accuracy: weights equal the last implicit row
    assert np.allclose(tab.b, tab.a_im[2])
    # the explicit part starts every step without implicit work
    assert np.all(np.triu(tab.a_ex) == 0.0)
    assert tab.a_im[0, 0] == 0.0 and tab.a_im[1, 1] > 0.0


# ---------------------------------------------------------------------------
# tridiagonal solvers


def test_thomas_matches_dense_solve():
    rng = np.random.default_rng(4)
    n, cols = 7, 5
    sub = rng.random((n, cols))
    sup = rng.random((n, cols))
    diag = 4.0 + rng.random((n, cols))  # diagonally dominant
    rhs = rng.standard_normal((n, cols))
    x = thomas(thomas_factor(sub, diag, sup), rhs)
    for j in range(cols):
        A = (np.diag(diag[:, j]) + np.diag(sup[:-1, j], 1)
             + np.diag(sub[1:, j], -1))
        assert np.allclose(A @ x[:, j], rhs[:, j], atol=1e-12)


# ---------------------------------------------------------------------------
# Courant numbers and adaptive step


def test_courant_numbers_hand_computed():
    mesh = m.build_mesh(0.0, 1.0, 4)   # dx = 0.25
    layout = m.uniform_layout(mesh, 2)
    grid = m.Grid(mesh=mesh, layout=layout, params=m.PhysParams())
    state = m.rest_state(mesh, layout, eta0=2.0)
    state.u[:] = 0.3                   # ubar = 0.3
    state.rho[:] = 0.04                # rhobar = 0.04
    dt = 0.1
    c_cel, c_vel = m.courant_numbers(state, grid, dt)
    g, h = 9.81, 2.0
    assert c_cel == pytest.approx((0.3 + np.sqrt(1.04 * g * h)) * dt / 0.25,
                                  rel=1e-13)
    assert c_vel == pytest.approx((0.3 + np.sqrt(0.04 * g * h)) * dt / 0.25,
                                  rel=1e-13)


def test_adaptive_dt_inverts_courant_and_caps():
    grid, state = smooth_periodic_problem()
    per_unit_dt = m.courant_numbers(state, grid, 1.0)
    dt = m.courant_dt(per_unit_dt[0], 0.5)
    c_cel, _ = m.courant_numbers(state, grid, dt)
    assert c_cel == pytest.approx(0.5, rel=1e-12)
    assert m.courant_dt(per_unit_dt[0], 0.5, dt_max=1e-5) == 1e-5
    assert m.courant_dt(4.0, 0.5) == 0.125
    assert m.courant_dt(0.0, 0.5) == np.inf
    dt_v = m.courant_dt(per_unit_dt[1], 0.5)
    _, c_vel = m.courant_numbers(state, grid, dt_v)
    assert c_vel == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# implicit stage


def test_implicit_stage_satisfies_unreduced_equations():
    mesh = m.build_mesh(0.0, 2.0, 12)
    layout = m.uniform_layout(mesh, 2)
    grid = m.Grid(mesh=mesh, layout=layout, params=m.PhysParams(nu=1e-3))
    state = m.rest_state(mesh, layout, eta0=1.0)
    state.eta += 0.05 * np.cos(np.pi * mesh.x_center)
    state.u[0] = 0.1
    state.u[1] = -0.05
    fs = prepare_fields(state, grid, 0.0)
    coeffs = viscous_coefficients(grid, fs.h_half, fs.u)
    gamma_dt = 0.05 * (1.0 - 1.0 / np.sqrt(2.0))
    ws = build_implicit_workspace(grid, fs.h_half, coeffs, gamma_dt)
    eta, u = implicit_stage_solve(grid, ws, state.eta, state.u, 0.0)
    res = implicit_residual(grid, ws, state.eta, state.u, eta, u, 0.0)
    assert res < 1e-12


def test_implicit_stage_periodic_residual():
    grid, state = smooth_periodic_problem(M=24, n_layers=3)
    grid = m.Grid(mesh=grid.mesh, layout=grid.layout,
                  params=m.PhysParams(nu=5e-4), bounds=m.periodic())
    fs = prepare_fields(state, grid, 0.0)
    coeffs = viscous_coefficients(grid, fs.h_half, fs.u)
    ws = build_implicit_workspace(grid, fs.h_half, coeffs, 0.02)
    eta, u = implicit_stage_solve(grid, ws, state.eta, state.u, 0.0)
    res = implicit_residual(grid, ws, state.eta, state.u, eta, u, 0.0)
    assert res < 1e-12
    assert u[0, -1] == u[0, 0]


def _open_ends():
    def fresh(t):
        return np.zeros(3)
    return m.Boundaries(m.Discharge(q=lambda t: 0.01 + 0.1 * t, rho=fresh),
                        m.Elevation(eta=lambda t: 1.0 + 0.05 * t, rho=fresh))


@pytest.mark.parametrize("bounds", [m.periodic(), m.closed(), _open_ends()],
                         ids=["periodic", "closed", "open"])
def test_stage_solves_share_one_workspace(bounds):
    """The frozen stage matrix serves every stage of a step: two stage
    solves from different explicit states and times through one workspace
    each satisfy the unreduced equations, and the second gives what a
    freshly built workspace gives (the first solve left it as it was)."""
    mesh = m.build_mesh(0.0, 1.0, 24,
                        bathymetry=lambda x: 0.2 * np.exp(-((x - 0.4) / 0.1) ** 2))
    layout = m.uniform_layout(mesh, 3)
    grid = m.Grid(mesh=mesh, layout=layout, params=m.PhysParams(nu=5e-4),
                  bounds=bounds)
    state = m.rest_state(mesh, layout, eta0=1.0)
    x, k = mesh.x_iface, np.arange(3)[:, None]
    state.eta = state.eta + 0.01 * np.sin(2 * np.pi * mesh.x_center)
    state.u = np.where(grid.evolved_u, 0.05 * np.cos(2 * np.pi * x + 0.7 * k), 0.0)
    if bounds.periodic:
        state.u[:, -1] = state.u[:, 0]
    fs = prepare_fields(state, grid, 0.0)
    coeffs = viscous_coefficients(grid, fs.h_half, fs.u)
    assert coeffs is not None

    def workspace():
        return build_implicit_workspace(grid, fs.h_half, coeffs, 0.02)

    ws = workspace()
    stages = [(state.eta, state.u, 0.1),
              (state.eta - 0.02 * np.cos(4 * np.pi * mesh.x_center),
               state.u + 0.03 * np.sin(2 * np.pi * x + k), 0.3)]
    for eta_e, u_e, t in stages:
        eta, u = implicit_stage_solve(grid, ws, eta_e, u_e, t)
        assert implicit_residual(grid, ws, eta_e, u_e, eta, u, t) < 1e-12
    fresh = implicit_stage_solve(grid, workspace(), *stages[1])
    assert np.array_equal(eta, fresh[0]) and np.array_equal(u, fresh[1])


@pytest.mark.parametrize("name", sorted(n for n in reference_runs() if not n.endswith("_rk3")))
def test_stage_velocities_are_zero_off_the_evolved_ones(name):
    """With no mask applied, the stage solve returns exact zeros in the
    padded layers and at the walls and discharge ends, even from an explicit
    velocity that is not zero there; the periodic alias repeats column 0."""
    _, _, grid, state, t, dt, _ = reference_runs()[name]
    fs = prepare_fields(state, grid, t)
    A = viscous_coefficients(grid, fs.h_half, fs.u)
    ws = build_implicit_workspace(grid, fs.h_half, A, dt * m.ark2_tableau().a_im[1, 1])
    u_e = np.where(grid.layout.active_half(),
                   fs.u + np.random.default_rng(5).standard_normal(fs.u.shape), 0.0)
    eta, u = implicit_stage_solve(grid, ws, state.eta, u_e, t)
    off = ~grid.evolved_u
    if grid.bounds.periodic:
        assert np.array_equal(u[:, -1], u[:, 0])
        off[:, -1] = False
    assert grid.fixed_u_columns.size and np.all(u[off] == 0.0)
    assert not np.any(np.signbit(u[off]))


@pytest.mark.parametrize("name", ["tidal_nvar4", "basin_424", "periodic_viscous"])
def test_column_matrix_is_one_minus_gamma_dt_A(name):
    """The workspace's eliminated column matrix, multiplied back out (L U,
    L lower bidiagonal with the pivots, U unit upper with c), applied to a
    random u gives u - gamma_dt A u: the stage matrix reads the same A as
    the explicit tendency."""
    _, _, grid, state, t, dt, _ = reference_runs()[name]
    fs = prepare_fields(state, grid, t)
    A = viscous_coefficients(grid, fs.h_half, fs.u)
    ws = build_implicit_workspace(grid, fs.h_half, A, dt * m.ark2_tableau().a_im[1, 1])
    u = np.random.default_rng(3).standard_normal(fs.u.shape)
    sub, c, piv = ws.vertical
    y = u.copy()
    y[:-1] += c[:-1] * u[1:]
    Tu = piv * y
    Tu[1:] += sub[1:] * y[:-1]
    want = u - ws.gamma_dt * (viscous_exchange(u, A) - A.k)
    assert np.max(np.abs(Tu - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# full steps


@pytest.mark.parametrize("stepper", [m.rk3_step, m.imex_ark2_step])
def test_small_step_stays_close_to_initial(stepper):
    grid, state = smooth_periodic_problem()
    dt = 1e-6
    out = stepper(state, grid, 0.0, dt)
    assert np.max(np.abs(out.eta - state.eta)) < 1e-6
    assert np.max(np.abs(out.u - state.u)) < 1e-6
    assert out.u[0, -1] == out.u[0, 0]


def test_steppers_agree_on_smooth_problem():
    """Both integrators approximate the same dynamics: after one step of a
    smooth problem they differ by a superlinear-in-dt amount that is tiny
    compared with the step change itself."""
    grid, state = smooth_periodic_problem()
    diffs = []
    for dt in (2e-3, 1e-3):
        a = m.rk3_step(state, grid, 0.0, dt)
        b = m.imex_ark2_step(state, grid, 0.0, dt)
        change = np.max(np.abs(a.eta - state.eta))
        diff = np.max(np.abs(a.eta - b.eta))
        assert diff < 0.05 * change
        diffs.append(diff)
    order = np.log2(diffs[0] / diffs[1])
    assert order > 2.0


def test_step_failure_on_near_dry_state():
    mesh = m.build_mesh(0.0, 1.0, 8)
    layout = m.uniform_layout(mesh, 1)
    grid = m.Grid(mesh=mesh, layout=layout, params=m.PhysParams())
    state = m.rest_state(mesh, layout, eta0=1e-3)
    state.u[:] = 5.0  # drains cells immediately
    with pytest.raises(m.StepFailure):
        m.rk3_step(state, grid, 0.0, 0.05)


def test_rhs_counters():
    grid, state = smooth_periodic_problem()
    rk = m.RK3Integrator(grid)
    rk.step(state, 0.0, 1e-4)
    assert rk.n_rhs == 3
    imex = m.IMEXIntegrator(grid)
    imex.step(state, 0.0, 1e-4)
    assert imex.n_rhs == 3 and imex.n_implicit == 2
