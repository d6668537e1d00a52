"""Invariants on random variable layer layouts.

Each example is a closed basin on [-1, 1] with three regions: a random
coarse fraction table, a random refinement of it, the middle region
(|x| below a bound that lies between interfaces) finer or coarser than the
two ends, and a random symmetric bottom bump. Both integrators must conserve
volume and density content, commute with the mirror x -> -x, keep a
constant density constant while the flow moves, and leave a flat-bottom
rest state exactly at rest. The same basins are periodic too (both ends
share a table, so the wrap has no transition); there both integrators must
conserve, keep a constant density constant and keep a flat-bottom rest
state at rest (to the round-off of the implicit solve).

The same basins with a wall, a discharge or an elevation at either end must
commute with the mirror that also swaps the ends, and gain the prescribed
inflow as volume when no end is an elevation. With a constant density
inside and at every open end, that density must stay constant however the
prescribed discharge varies in time.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlswe as m

M = 24
STEPS = 5
STEPPERS = ((m.IMEXIntegrator, 0.02), (m.RK3Integrator, 0.01))
weights = st.lists(st.floats(0.3, 1.0), min_size=1, max_size=3)


@st.composite
def basins(draw):
    w = np.array(draw(weights))
    coarse = w / w.sum()
    parts = [np.array(draw(weights)) for _ in coarse]
    if all(p.size == 1 for p in parts):
        parts[0] = np.array([0.5, 0.5])
    fine = np.concatenate([l * p / p.sum() for l, p in zip(coarse, parts)])
    ends, middle = (coarse, fine) if draw(st.booleans()) else (fine, coarse)
    bound = (draw(st.integers(2, 8)) + 0.5) * 2.0 / M
    amp, width = draw(st.floats(0.0, 0.3)), draw(st.floats(0.1, 0.4))
    return [(-bound, ends), (bound, middle), (np.inf, ends)], amp, width


def _problem(regions, amp, width, bounds=None):
    mesh = m.build_mesh(-1.0, 1.0, M,
                        bathymetry=lambda x: amp * np.exp(-(x / width) ** 2))
    layout = m.build_layout(mesh, regions)
    assert not layout.uniform
    grid = m.Grid(mesh=mesh, layout=layout, params=m.PhysParams(nu=1e-4),
                  bounds=bounds or m.closed())
    state = m.rest_state(mesh, layout, eta0=1.0)
    k = np.arange(layout.n_max)[:, None]
    state.eta = state.eta + 0.01 * np.sin(np.pi * (mesh.x_center + 0.3))
    state.u = np.where(layout.active_half(),
                       0.02 * np.sin(np.pi * mesh.x_iface + 0.5 * k), 0.0)
    state.rho = np.where(layout.active_int() & (mesh.x_center > 0.1), 0.02, 0.0)
    return grid, state


def _run(cls, dt, grid, state):
    integ = cls(grid)
    for n in range(STEPS):
        state = integ.step(state, n * dt, dt)
    return state


def _mirror(state):
    return m.State(eta=state.eta[::-1].copy(), u=-state.u[:, ::-1],
                   rho=state.rho[:, ::-1].copy())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(basins())
def test_variable_layout_invariants(basin):
    grid, start = _problem(*basin)
    mesh, layout = grid.mesh, grid.layout
    vol0 = m.total_volume(start, mesh)
    mass0 = m.total_density_mass(start, mesh, layout)
    # like acceptance 11, the constant-density start has no vertical shear
    const = start.copy()
    const.u = np.where(layout.active_half(), 0.02 * np.sin(np.pi * mesh.x_iface), 0.0)
    const.rho = np.where(layout.active_int(), 0.02, 0.0)
    for cls, dt in STEPPERS:
        end = _run(cls, dt, grid, start)
        assert abs(m.total_volume(end, mesh) - vol0) <= 1e-13 * vol0
        assert abs(m.total_density_mass(end, mesh, layout) - mass0) <= 1e-13 * mass0

        mirrored = _mirror(_run(cls, dt, grid, _mirror(start)))
        for a, b in ((end.eta, mirrored.eta), (end.u, mirrored.u),
                     (end.rho, mirrored.rho)):
            assert np.max(np.abs(a - b)) <= 1e-12

        rho = _run(cls, dt, grid, const).rho
        assert np.max(np.abs(np.where(layout.active_int(), rho - 0.02, 0.0))) <= 1e-12

    flat = m.Grid(mesh=m.build_mesh(-1.0, 1.0, M), layout=layout,
                  params=grid.params)
    rest = m.rest_state(flat.mesh, layout, eta0=1.0)
    rest.rho = const.rho
    tend = m.compute_tendencies(rest, flat, 0.0)
    for d in (tend.d_eta, tend.d_u_stiff, tend.d_u_nonstiff, tend.d_r):
        assert np.all(d == 0.0)


# ---------------------------------------------------------------------------
# open ends

KINDS = ("wall", "discharge", "elevation")
# per end: discharge q, elevation offset and inflow density of its layers
END_A, END_B = (0.05, 0.004, 0.01), (0.03, -0.003, 0.03)


def _condition(kind, rho, q, d_eta, growth=0.0):
    """A `kind` end with the inflow density profile rho, the discharge
    q (1 + growth t) and the elevation 1 + d_eta cos(10 t)."""
    if kind == "wall":
        return m.Wall()
    if kind == "discharge":
        return m.Discharge(q=lambda t: q * (1.0 + growth * t), rho=lambda t: rho)
    return m.Elevation(eta=lambda t: 1.0 + d_eta * np.cos(10.0 * t), rho=lambda t: rho)


@pytest.mark.parametrize("left", KINDS)
@pytest.mark.parametrize("right", KINDS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(basin=basins())
def test_open_ends_mirror_and_inflow(left, right, basin):
    grid, start = _problem(*basin)
    n_layers = grid.layout.n_half[0]
    a, b = (_condition(kind, np.linspace(rho_in, 2.0 * rho_in, n_layers), q, d_eta)
            for kind, (q, d_eta, rho_in) in ((left, END_A), (right, END_B)))
    forward = replace(grid, bounds=m.Boundaries(a, b))
    swapped = replace(grid, bounds=m.Boundaries(b, a))
    vol0 = m.total_volume(start, grid.mesh)
    inflow = sum(q for kind, (q, _, _) in ((left, END_A), (right, END_B))
                 if kind == "discharge")
    for cls, dt in STEPPERS:
        end = _run(cls, dt, forward, start)
        mirrored = _mirror(_run(cls, dt, swapped, _mirror(start)))
        for x, y in ((end.eta, mirrored.eta), (end.u, mirrored.u),
                     (end.rho, mirrored.rho)):
            assert np.max(np.abs(x - y)) <= 1e-12
        if "elevation" not in (left, right):
            gained = m.total_volume(end, grid.mesh) - vol0
            assert abs(gained - inflow * STEPS * dt) <= 1e-13 * vol0


@pytest.mark.parametrize("left", KINDS)
@pytest.mark.parametrize("right", KINDS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(basin=basins())
def test_open_ends_keep_a_constant_density(left, right, basin):
    """The density is carried on the mass flux of its stage, a prescribed
    discharge at the stage's time included, so an unsheared constant
    density stays constant through a discharge that grows in time."""
    grid, start = _problem(*basin)
    mesh, layout = grid.mesh, grid.layout
    rho = np.full(layout.n_half[0], 0.02)
    grid = replace(grid, bounds=m.Boundaries(
        *(_condition(kind, rho, q, d_eta, growth=20.0)
          for kind, (q, d_eta, _) in ((left, END_A), (right, END_B)))))
    start.u = np.where(layout.active_half(), 0.02 * np.sin(np.pi * mesh.x_iface), 0.0)
    start.rho = np.where(layout.active_int(), 0.02, 0.0)
    for cls, dt in STEPPERS:
        rho = _run(cls, dt, grid, start).rho
        assert np.max(np.abs(np.where(layout.active_int(), rho - 0.02, 0.0))) <= 1e-12


# ---------------------------------------------------------------------------
# periodic basins


@settings(max_examples=20, deadline=None, derandomize=True)
@given(basins())
def test_periodic_layout_invariants(basin):
    grid, start = _problem(*basin, bounds=m.periodic())
    mesh, layout = grid.mesh, grid.layout
    assert not (layout.transition_cell[0] or layout.transition_cell[-1])
    start.u[:, -1] = start.u[:, 0]  # interface M is interface 0
    vol0 = m.total_volume(start, mesh)
    mass0 = m.total_density_mass(start, mesh, layout)
    const = start.copy()
    const.u = np.where(layout.active_half(), 0.02 * np.sin(np.pi * mesh.x_iface), 0.0)
    const.u[:, -1] = const.u[:, 0]
    const.rho = np.where(layout.active_int(), 0.02, 0.0)
    flat = replace(grid, mesh=m.build_mesh(-1.0, 1.0, M))
    rest = m.rest_state(flat.mesh, layout, eta0=1.0)
    rest.rho = const.rho
    for cls, dt in STEPPERS:
        end = _run(cls, dt, grid, start)
        assert abs(m.total_volume(end, mesh) - vol0) <= 1e-13 * vol0
        assert abs(m.total_density_mass(end, mesh, layout) - mass0) <= 1e-13 * mass0

        rho = _run(cls, dt, grid, const).rho
        assert np.max(np.abs(np.where(layout.active_int(), rho - 0.02, 0.0))) <= 1e-12

        still = _run(cls, dt, flat, rest)  # the implicit solve leaves round-off
        assert np.max(np.abs(still.eta - 1.0)) <= 1e-13
        assert np.max(np.abs(still.u)) <= 1e-13
        assert np.max(np.abs(still.rho - rest.rho)) <= 1e-13

    tend = m.compute_tendencies(rest, flat, 0.0)
    for d in (tend.d_eta, tend.d_u_stiff, tend.d_u_nonstiff, tend.d_r):
        assert np.all(d == 0.0)


# ---------------------------------------------------------------------------
# what the operators trust


@pytest.mark.parametrize("ends", [*((a, b) for a in KINDS for b in KINDS), "periodic"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(basin=basins())
def test_steps_keep_the_padding_and_the_fixed_columns(ends, basin):
    """The operators multiply the padding above the live layers instead of
    masking it, and a run checks it only at its start: after the steps,
    every u above n_half and every rho above n_int is +0.0, compared as
    bytes (so -0.0 fails). Both steps leave 0 in the velocity at an end of
    prescribed discharge and column 0's values in a periodic column M,
    although `_problem`'s start has velocities at the walls and a periodic
    column M that is not copied from column 0."""
    if ends == "periodic":
        grid, start = _problem(*basin, bounds=m.periodic())
    else:
        grid, start = _problem(*basin)
        rho = np.linspace(0.01, 0.02, grid.layout.n_half[0])
        grid = replace(grid, bounds=m.Boundaries(*(
            _condition(kind, rho, q, d_eta)
            for kind, (q, d_eta, _) in zip(ends, (END_A, END_B)))))
    fixed = [end.iface for end in grid.discharge_ends]
    padding = ~grid.layout.active_half(), ~grid.layout.active_int()
    for cls, dt in STEPPERS:
        end = _run(cls, dt, grid, start)
        for a, pad in zip((end.u, end.rho), padding):
            assert a[pad].tobytes() == bytes(8 * np.count_nonzero(pad))
        assert not end.u[:, fixed].any()
        assert end.u[:, -1].tobytes() == end.u[:, 0].tobytes() or not grid.bounds.periodic
