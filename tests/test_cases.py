import numpy as np
import pytest

import mlswe as m
from mlswe.cases import (TIDAL_LAYOUTS, internal_wave_fractions,
                         tidal_bathymetry, tidal_exterior_density)
from mlswe.state import total_density_mass


def test_internal_wave_fractions():
    frac = internal_wave_fractions()
    assert frac.size == 54
    assert np.isclose(frac.sum(), 1.0)
    assert np.all(frac[2:52] == 0.01)
    assert np.all(frac[[0, 1, 52, 53]] == 0.125)


def test_internal_wave_initial_density():
    grid, state = m.build_problem(m.case_internal_wave())
    x = grid.mesh.x_center
    # perturbed pycnocline: depth 0.15 far from the bump, 0.19 at its crest
    z_lim = 0.15 + 0.04 * np.exp(-100.0 * (x - 1.0) ** 2)
    assert 0.15 + 0.04 * np.exp(0.0) == pytest.approx(0.19, abs=1e-12)
    assert z_lim.max() == pytest.approx(0.19, abs=2e-4)  # nearest cell center
    z_top = 0.3 * np.cumsum(grid.layout.l_int, axis=0)
    expected = np.where(z_top < z_lim[None, :], 0.03, 0.0)
    assert np.array_equal(state.rho, expected)
    assert state.rho[0].min() == 0.03       # bottom row inside the dense pool
    assert state.rho[-1].max() == 0.0       # top row in fresh water


def test_lock_exchange_initial_content():
    spec = m.case_lock_exchange()
    grid, state = m.build_problem(spec)
    # dense half-domain: rho=0.03 over 10 m of 0.3 m deep water
    assert total_density_mass(state, grid.mesh, grid.layout) == pytest.approx(
        0.03 * 0.3 * 10.0, rel=1e-12)
    assert spec.limiter and spec.dt == 0.1 and spec.t_final == 84.0


def test_lock_exchange_theoretical_speed():
    v = m.lock_exchange_theoretical_speed()
    assert v == pytest.approx(np.sqrt(0.25 * 9.81 * 0.3 * 0.03), rel=1e-14)
    assert v == pytest.approx(0.1485, abs=5e-4)


def test_tidal_bathymetry_profile():
    # shallow shelf on the left, deep basin on the right, a 20 m sill bump
    assert tidal_bathymetry(-7500.0) == pytest.approx(92.0, abs=0.1)
    assert tidal_bathymetry(22500.0) == pytest.approx(20 * np.exp(-(6500 / 2000) ** 2),
                                                      abs=0.05)
    bump = tidal_bathymetry(16000.0) - (46.0 - 46.0 * np.tanh(8500.0 / 3000.0))
    assert bump == pytest.approx(20.0, abs=1e-6)


def test_tidal_layouts_and_exterior_density():
    assert set(TIDAL_LAYOUTS) == {"uniform", "nvar1", "nvar3", "nvar4"}
    assert np.allclose(TIDAL_LAYOUTS["uniform"], 0.1)
    for key in ("nvar1", "nvar3", "nvar4"):
        shallow = TIDAL_LAYOUTS[key][0][1]
        assert np.isclose(np.sum(shallow), 1.0)
    assert [len(TIDAL_LAYOUTS[k][0][1]) for k in ("nvar1", "nvar3", "nvar4")] \
        == [1, 3, 4]
    rho_ext = tidal_exterior_density()
    assert rho_ext.shape == (10,)
    assert np.all(rho_ext[:7] == 0.03)
    assert rho_ext[7:].tolist() == [0.028, 0.025, 0.015]
    # stably stratified: non-increasing upward
    assert np.all(np.diff(rho_ext) <= 0)


def test_tidal_boundary_forcing():
    spec = m.case_tidal()
    assert isinstance(spec.bounds.left, m.Discharge)
    assert isinstance(spec.bounds.right, m.Elevation)
    period = 43200.0
    assert spec.bounds.right.eta(0.0) == pytest.approx(100.0)
    assert spec.bounds.right.eta(period / 4) == pytest.approx(103.0)
    # forcing ramps in over six hours
    assert spec.bounds.left.q(0.0) == 0.0
    assert spec.bounds.left.q(3 * 3600.0) == pytest.approx(0.5)
    assert spec.bounds.left.q(12 * 3600.0) == 1.0
    assert np.allclose(spec.bounds.right.rho(3 * 3600.0),
                       0.5 * tidal_exterior_density())
    assert np.allclose(spec.bounds.right.rho(1e6), tidal_exterior_density())


def test_tidal_layers_override_sizes_the_inflow_profile():
    """`layers=` replaces the named layout's table, and the left inflow
    density takes its layer count from it."""
    spec = m.case_tidal("uniform", layers=TIDAL_LAYOUTS["nvar3"], M=40)
    assert spec.bounds.left.rho(0.0).shape == (3,)
    grid, state = m.build_problem(spec)
    assert grid.layout.n_half[0] == 3 and grid.layout.n_half[-1] == 10
    m.IMEXIntegrator(grid).step(state, 3600.0, 20.0).validate(grid.mesh, grid.layout)


def test_tidal_layers_override_sizes_the_sea_side_profile():
    """The sea-side density takes the right end's own layers: the default
    profile as it is, each parent value twice on 20 layers, and the
    thickness-weighted means on 4 layers (0.25 = 0.1 + 0.1 + 0.05)."""
    rho_ext = tidal_exterior_density()
    assert m.case_tidal().bounds.right.rho(1e6).tobytes() == rho_ext.tobytes()
    quarter = [0.03, 0.03, (0.2 * 0.03 + 0.05 * 0.028) / 0.25,
               (0.05 * 0.028 + 0.1 * 0.025 + 0.1 * 0.015) / 0.25]
    for layers, want, exact in ((np.full(20, 0.05), np.repeat(rho_ext, 2), True),
                                (np.full(4, 0.25), np.array(quarter), False)):
        spec = m.case_tidal("uniform", layers=layers, M=40)
        got = spec.bounds.right.rho(1e6)
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        grid, state = m.build_problem(spec)
        assert grid.layout.n_half[-1] == layers.size
        m.IMEXIntegrator(grid).step(state, 7.0 * 3600.0, 20.0).validate(grid.mesh,
                                                                        grid.layout)


def test_tidal_layers_as_a_tuple_build_the_list_problem():
    """A region spec may be a tuple of (x_upper, fractions) pairs, as
    `build_layout` reads it; `case_tidal` reads it through the same
    function, so the tuple builds the problem that the list builds (the
    tuple's left and right tables used to be taken as one table)."""
    regions = TIDAL_LAYOUTS["nvar4"]
    specs = [m.case_tidal("nvar4", layers=layers, M=40)
             for layers in (list(regions), tuple(regions))]
    built = [m.build_problem(spec) for spec in specs]
    (grid_l, _), (grid_t, _) = built
    for name in ("n_half", "l_half", "n_int", "l_int"):
        assert np.array_equal(getattr(grid_l.layout, name), getattr(grid_t.layout, name))
    for end in ("left", "right"):
        a, b = (getattr(spec.bounds, end).rho(4.0 * 3600.0) for spec in specs)
        assert a.tobytes() == b.tobytes(), end
    steps = [m.IMEXIntegrator(grid).step(state, 3600.0, 20.0) for grid, state in built]
    assert all(getattr(steps[0], f).tobytes() == getattr(steps[1], f).tobytes()
               for f in ("eta", "u", "rho"))


def test_case_spec_refuses_an_unknown_integrator():
    """An unknown integrator used to be accepted and to fail only when the
    run started; the spec now refuses it when it is built."""
    with pytest.raises(ValueError, match="unknown integrator 'rk4'"):
        m.case_lock_exchange(integrator="rk4")
    with pytest.raises(ValueError, match="unknown integrator"):
        m.case_internal_wave().with_options(integrator="IMEX")
    assert m.RK3Integrator(m.build_problem(m.case_lock_exchange(M=20))[0]).n_implicit == 0


def test_case_spec_validation():
    with pytest.raises(ValueError):
        m.case_internal_wave(t_final=-1.0)
    with pytest.raises(ValueError):
        m.case_internal_wave(dt=None, target_ccel=None)
    with pytest.raises(ValueError):
        m.case_tidal(layout="nosuch")
    spec = m.case_internal_wave()
    other = spec.with_options(dt=0.01)
    assert other.dt == 0.01 and spec.dt == 0.04
    # no step cap and no blow-up threshold to set: dt_max = -1 used to run
    # backwards in time
    for unknown in ("dt_max", "u_blowup"):
        with pytest.raises(TypeError):
            m.case_lock_exchange(**{unknown: -1.0})
    # an infinite output interval keeps the first and the last state
    result = m.run_case(m.case_lock_exchange(M=20, t_final=0.3,
                                             output_interval=float("inf")))
    assert result.times == pytest.approx([0.0, 0.3])


# what the spec says about the last field of each bad input
RULES = {"dt": "positive and finite", "target_ccel": "positive and finite",
         "output_interval": "positive", "t_final": "nonnegative and finite"}
# valid alone, but both cases set dt, which a C_cel target excludes
BOTH_STEPS = {"target_ccel": 0.9}


@pytest.mark.parametrize("bad", [
    {"dt": 0.0}, {"dt": -0.1}, {"dt": float("nan")}, {"dt": float("inf")},
    {"dt": None, "target_ccel": 0.0}, {"dt": None, "target_ccel": -0.9},
    {"output_interval": 0.0}, {"output_interval": -0.4},
    {"output_interval": float("nan")}, {"t_final": float("nan")},
    {"t_final": float("inf")}, BOTH_STEPS])
def test_case_spec_rejects_bad_time_steps(bad, monkeypatch):
    """dt = 0 used to hang the run and dt < 0 to run backwards in time;
    output_interval = 0 failed inside the banded solve, < 0 ran backwards
    and NaN wrote 2 snapshots instead of 11; t_final = NaN "completed" 0
    steps; a target_ccel next to a dt was ignored. The spec now refuses
    them when it is built, before any step."""
    def no_step(*args, **kwargs):
        raise AssertionError("a step was started")

    for cls in (m.RK3Integrator, m.IMEXIntegrator):
        monkeypatch.setattr(cls, "step", no_step)
    name = list(bad)[-1]
    match = (f"{name} must be {RULES[name]}" if bad is not BOTH_STEPS
             else "dt and target_ccel exclude each other")
    with pytest.raises(ValueError, match=match):
        m.run_case(m.case_lock_exchange(integrator="rk3", **bad))
    with pytest.raises(ValueError, match=match):
        m.case_internal_wave().with_options(**bad)


def test_build_problem_shapes():
    grid, state = m.build_problem(m.case_tidal(layout="nvar4"))
    assert grid.mesh.M == 500
    assert state.u.shape == (10, 501)
    assert not grid.layout.uniform
    assert np.all(state.rho == 0.0)
    # the shallow region carries four layers, the deep region ten
    assert grid.layout.n_half.min() == 4 and grid.layout.n_half.max() == 10
