"""A few time steps of each integrator from fixed starts.

`tests/data/step_reference.npz` holds the states that a known-good version
of the code reached from the starts built here. The steppers must reproduce
them, so a restructuring of the step that is meant to leave the arithmetic
alone shows any change it does make. From the same starts, the split
right-hand side is checked against its term-by-term composition, and the
work of the steps is counted.

Regenerate the file (only after a change that is meant to alter results):

    PYTHONPATH=src python tests/test_step_reference.py
"""

from pathlib import Path

import numpy as np
import pytest

import mlswe as m
from mlswe import harness, integrators, spatial
from mlswe.spatial import (baroclinic_gradient, barotropic_gradient,
                           density_rhs_flux, density_tendency, free_surface_rhs,
                           mass_transfer, momentum_advection, momentum_nonstiff,
                           momentum_stiff, momentum_transfer_term,
                           prepare_fields, upwind_interface,
                           vertical_density_term, viscous_coefficients,
                           viscous_exchange)

REFERENCE = Path(__file__).resolve().parent / "data" / "step_reference.npz"
REL_TOL = 1e-13


def _perturb(grid, state, amp_eta, amp_u, amp_rho):
    """Add smooth, layer-dependent waves so that every term of the step,
    vertical shear and transfer included, is active."""
    mesh, layout = grid.mesh, grid.layout
    xc = (mesh.x_center - mesh.x_iface[0]) / mesh.length
    xi = (mesh.x_iface - mesh.x_iface[0]) / mesh.length
    k = np.arange(layout.n_max)[:, None]
    state.eta = state.eta + amp_eta * np.sin(2.0 * np.pi * xc)
    state.u = np.where(layout.active_half(),
                       state.u + amp_u * np.cos(2.0 * np.pi * xi + 0.7 * k), 0.0)
    bump = 0.5 * (1.0 + np.sin(4.0 * np.pi * xc + 0.3 * k))
    state.rho = np.where(layout.active_int(), state.rho + amp_rho * bump, 0.0)
    return state


def _periodic_viscous():
    mesh = m.build_mesh(0.0, 1.0, 24)
    layout = m.build_layout(mesh, [0.2, 0.3, 0.5])
    grid = m.Grid(mesh=mesh, layout=layout, params=m.PhysParams(nu=5e-4),
                  bounds=m.periodic())
    return grid, m.rest_state(mesh, layout, eta0=1.0)


def three_region_basin(ends, middle):
    """Closed basin on [0, 1] whose middle region (0.33 < x <= 0.67, bounds
    off the interfaces) uses the fraction table `middle` and both ends
    `ends`, with a bottom bump and a density front inside the middle."""
    mesh = m.build_mesh(0.0, 1.0, 40,
                        bathymetry=lambda x: 0.2 * np.exp(-((x - 0.45) / 0.1) ** 2))
    layout = m.build_layout(mesh, [(0.33, ends), (0.67, middle), (np.inf, ends)])
    grid = m.Grid(mesh=mesh, layout=layout, params=m.PhysParams(nu=1e-4))
    state = m.rest_state(mesh, layout, eta0=1.0)
    state.rho = np.where(layout.active_int() & (mesh.x_center > 0.55), 0.02, 0.0)
    return grid, state


def reference_runs():
    """name -> (integrator, limiter, grid, start state, t0, dt, steps)."""
    runs = {}
    grid, state = m.build_problem(m.case_internal_wave(M=24))
    runs["internal_wave"] = ("imex", False, grid,
                             _perturb(grid, state, 0.002, 0.02, 0.0), 0.0, 0.04, 5)
    for layout in ("nvar4", "uniform"):
        grid, state = m.build_problem(m.case_tidal(layout=layout, M=40))
        runs[f"tidal_{layout}"] = ("imex", False, grid,
                                   _perturb(grid, state, 0.5, 0.2, 0.01),
                                   3.0 * 3600.0, 20.0, 5)
    grid, state = m.build_problem(m.case_lock_exchange(M=40))
    runs["lock_exchange"] = ("imex", True, grid, state, 0.0, 0.1, 5)
    runs["lock_exchange_rk3"] = ("rk3", True, grid, state, 0.0, 0.05, 5)
    grid, state = _periodic_viscous()
    runs["periodic_viscous"] = ("imex", False, grid,
                                _perturb(grid, state, 0.01, 0.05, 0.02), 0.0, 0.01, 5)
    # both orientations of a layer-count transition: coarse ends around a
    # fine middle (2 -> 4 -> 2 layers) and the mirror (4 -> 2 -> 4)
    halves, quarters = [0.5, 0.5], [0.25] * 4
    grid, state = three_region_basin(halves, quarters)
    state = _perturb(grid, state, 0.01, 0.05, 0.005)
    runs["basin_242"] = ("imex", False, grid, state, 0.0, 0.01, 5)
    runs["basin_242_rk3"] = ("rk3", True, grid, state, 0.0, 0.004, 5)
    grid, state = three_region_basin(quarters, halves)
    runs["basin_424"] = ("imex", True, grid,
                         _perturb(grid, state, 0.01, 0.05, 0.005), 0.0, 0.01, 5)
    return runs


def advance(kind, limiter, grid, state, t0, dt, steps):
    cls = m.IMEXIntegrator if kind == "imex" else m.RK3Integrator
    integ = cls(grid, limiter=limiter)
    for n in range(steps):
        state = integ.step(state, t0 + n * dt, dt)
    return state, integ


def _record(name, state, integ) -> dict:
    return {f"{name}.eta": state.eta, f"{name}.u": state.u,
            f"{name}.rho": state.rho,
            f"{name}.counts": np.array([integ.n_rhs, getattr(integ, "n_implicit", 0)])}


@pytest.mark.parametrize("name", sorted(reference_runs()))
def test_steps_reproduce_reference(name):
    ref = np.load(REFERENCE)
    state, integ = advance(*reference_runs()[name])
    got = _record(name, state, integ)
    np.testing.assert_array_equal(got[f"{name}.counts"], ref[f"{name}.counts"])
    for key in (f"{name}.eta", f"{name}.u", f"{name}.rho"):
        want = ref[key]
        scale = max(1.0, float(np.max(np.abs(want))))
        assert got[key].shape == want.shape, key
        assert np.max(np.abs(got[key] - want)) <= REL_TOL * scale, key


def _rhs_term_by_term(state, grid, t, limiter):
    """(d_eta, d_u_stiff, d_u_nonstiff, d_r) assembled from the individual
    operators, as compute_tendencies did before the split (reference)."""
    fs = prepare_fields(state, grid, t)
    G = mass_transfer(fs.flux, grid)
    coeffs = viscous_coefficients(grid, fs.h_half, fs.u)
    evolved = np.ones(grid.mesh.M + 1, dtype=bool)
    if grid.bounds.periodic:
        evolved[-1] = False
    else:
        evolved[0] = isinstance(grid.bounds.left, m.Elevation)
        evolved[-1] = isinstance(grid.bounds.right, m.Elevation)
    mask = evolved[None, :] & grid.layout.active_half()
    stiff = barotropic_gradient(fs, grid)
    if coeffs is not None:
        stiff = stiff + viscous_exchange(fs.u, coeffs)
    nonstiff = (-momentum_advection(fs, grid, limiter)
                + momentum_transfer_term(fs, G, grid) + baroclinic_gradient(fs, grid))
    rho_up = np.where(grid.layout.active_half(),
                      upwind_interface(fs.rho_L, fs.rho_R, fs.u), 0.0)
    d_r = (density_rhs_flux(rho_up, fs.flux, grid)
           + vertical_density_term(state.rho, G, grid))
    return (free_surface_rhs(fs, grid), np.where(mask, stiff, 0.0),
            np.where(mask, nonstiff, 0.0),
            np.where(grid.layout.active_int(), d_r, 0.0))


@pytest.mark.parametrize("name", sorted(reference_runs()))
def test_compute_tendencies_is_the_sum_of_its_pieces(name):
    _, limiter, grid, state, t, _, _ = reference_runs()[name]
    tend = m.compute_tendencies(state, grid, t, limiter=limiter)
    fs = prepare_fields(state, grid, t)
    G = mass_transfer(fs.flux, grid)
    coeffs = viscous_coefficients(grid, fs.h_half, fs.u)
    stiff = momentum_stiff(fs, coeffs, grid)
    nonstiff = momentum_nonstiff(fs, G, grid, limiter)
    pieces = (free_surface_rhs(fs, grid), stiff, nonstiff,
              density_tendency(fs, G, state.rho, grid))
    got = (tend.d_eta, tend.d_u_stiff, tend.d_u_nonstiff, tend.d_r)
    for a, b, ref in zip(got, pieces, _rhs_term_by_term(state, grid, t, limiter)):
        assert np.array_equal(a, b) and np.array_equal(a, ref)
    assert np.array_equal(tend.d_u_stiff + tend.d_u_nonstiff, stiff + nonstiff)


WORK = ("viscous_coefficients", "prepare_fields", "boundary_values",
        "interface_cell_scalars", "upwind_interface", "mass_transfer",
        "density_rhs_flux", "vertical_density_term", "compute_tendencies",
        "_thomas", "solve_banded")


def _two_steps_counted(name, monkeypatch):
    """The calls of each function in WORK made by two steps of a reference
    run, and the integrator."""
    calls = dict.fromkeys(WORK, 0)

    def count(module, fname):
        original = getattr(module, fname)

        def counted(*args, **kwargs):
            calls[fname] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, fname, counted)

    for fname in calls:
        for module in (spatial, integrators, integrators.sla):
            if hasattr(module, fname):
                count(module, fname)
    _, integ = advance(*reference_runs()[name][:-1], steps=2)
    return calls, integ


@pytest.mark.parametrize("name, solves", [
    ("internal_wave", 0), ("lock_exchange", 0),   # identity vertical matrix
    ("tidal_nvar4", 3), ("periodic_viscous", 3)])  # one w_hat, one u_hat per stage
def test_imex_step_work(name, solves, monkeypatch):
    """Per step: the level-n viscous coefficients once, one field
    preparation (and one ghost-cell fill and one set of interface densities)
    per stage, no full right-hand side, the vertical tridiagonal solved only
    when it is not the identity, and the free-surface system solved once per
    stage, plus once per step for the Sherman-Morrison correction on a
    periodic grid. The density stages take one mass transfer at level n and
    two in each later stage (at the stage's height for its momentum, at the
    frozen height for its density), five horizontal density fluxes (one per
    stage, one carried into each of stages 2 and 3) and one vertical density
    term per stage. Upwinding: two per field preparation (height and
    density) and one for each carried flux; a stage's own flux reuses the
    density its field preparation upwinded."""
    calls, integ = _two_steps_counted(name, monkeypatch)
    banded = 3 if integ.grid.bounds.periodic else 2
    assert calls == {"viscous_coefficients": 2, "prepare_fields": 6,
                     "boundary_values": 6, "interface_cell_scalars": 6,
                     "upwind_interface": 16, "mass_transfer": 10,
                     "density_rhs_flux": 10, "vertical_density_term": 6,
                     "compute_tendencies": 0, "_thomas": 2 * solves,
                     "solve_banded": 2 * banded}
    assert (integ.n_rhs, integ.n_implicit) == (6, 4)


@pytest.mark.parametrize("name", ["basin_242_rk3", "lock_exchange_rk3"])
def test_rk3_step_work(name, monkeypatch):
    """Per step: one full right-hand side per stage, each with its one field
    preparation (which upwinds height and density once each), and no
    implicit solve."""
    calls, integ = _two_steps_counted(name, monkeypatch)
    assert calls == {**dict.fromkeys(WORK, 6), "upwind_interface": 12,
                     "_thomas": 0, "solve_banded": 0}
    assert integ.n_rhs == 6


def test_run_case_evaluates_courant_once_per_state(monkeypatch):
    """An adaptive run evaluates the Courant numbers once per state: the
    start's give the first dt, and each new state's give both its reported
    maxima and the next dt."""
    calls = []
    original = integrators.courant_numbers

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return original(*args, **kwargs)
    for module in (integrators, harness):
        monkeypatch.setattr(module, "courant_numbers", counted)
    spec = m.case_lock_exchange(M=40, integrator="rk3", dt=None, target_ccel=0.9,
                                t_final=4.0, output_interval=1.0)
    report = m.run_case(spec).report
    assert report.verdict == "completed" and report.steps > 10
    assert len(calls) == report.steps + 1
    assert 0.9 <= report.max_ccel <= 0.9 * 1.01


if __name__ == "__main__":
    data = {}
    for name, run in reference_runs().items():
        data.update(_record(name, *advance(*run)))
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE, **data)
    print(f"wrote {REFERENCE} ({REFERENCE.stat().st_size} bytes)")
