import warnings

import numpy as np
import pytest

from mlswe import (PhysParams, State, StepFailure, build_mesh, rest_state,
                   total_density_mass, total_volume, uniform_layout)
from mlswe.state import U_MAX, check_state


@pytest.fixture()
def setup():
    mesh = build_mesh(0.0, 2.0, 8, bathymetry=lambda x: 0.05 * x)
    layout = uniform_layout(mesh, 3)
    return mesh, layout


def test_rest_state_shapes_and_validation(setup):
    mesh, layout = setup
    st = rest_state(mesh, layout, eta0=0.5)
    assert st.eta.shape == (8,)
    assert st.u.shape == (3, 9)
    assert st.rho.shape == (3, 8)
    st.validate(mesh, layout)
    assert np.allclose(st.depth(mesh), 0.5 - mesh.b)


def test_validation_rejects_dry_and_misshapen(setup):
    mesh, layout = setup
    st = rest_state(mesh, layout, eta0=0.5)
    dry = State(eta=np.full(8, -1.0), u=st.u, rho=st.rho)
    with pytest.raises(StepFailure, match="h_min"):
        dry.validate(mesh, layout)
    for name in ("u", "rho"):
        bad = st.copy()
        getattr(bad, name)[1, 4] = np.inf
        with pytest.raises(StepFailure, match=rf"non-finite value at {name}\[1, 4\]"):
            bad.validate(mesh, layout)
    bad = State(eta=st.eta[:-1], u=st.u, rho=st.rho)
    with pytest.raises(ValueError):
        bad.validate(mesh, layout)


def _fields():
    """Depth, velocity and density of a healthy 3-layer state on 8 cells."""
    return {"eta": np.full(8, 0.5), "u": np.zeros((3, 9)), "rho": np.zeros((3, 8))}


def _check(fields, u_max=None):
    """check_state on `fields` with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_state(fields["eta"], 1e-6, fields["u"], fields["rho"], u_max)


@pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                         ids=["nan", "inf", "-inf", "inf and -inf"])
@pytest.mark.parametrize("name", ["eta", "u", "rho"])
def test_check_state_locates_the_first_non_finite_value(name, values):
    """A non-finite value fails the state at the first one in (layer,
    column) order, from a min and a max that raise no warning."""
    fields = _fields()
    spots = [(4,), (6,)] if name == "eta" else [(1, 4), (2, 1)]
    for spot, value in zip(spots, values):
        fields[name][spot] = value
    with pytest.raises(StepFailure) as failure:
        _check(fields, U_MAX)
    exc = failure.value
    assert (exc.reason, exc.field, exc.column) == ("non-finite value", name, spots[0][-1])
    assert exc.layer == (None if name == "eta" else 1)
    assert exc.value == values[0] or np.isnan(values[0]) and np.isnan(exc.value)


def test_check_state_bounds_depth_and_velocity():
    """A depth at h_min fails, a |u| at u_max passes and one just beyond
    fails at the largest |u|; finite extremes whose sum overflows pass
    without a warning."""
    fields = _fields()
    fields["rho"][:, :2] = [1.7e308, -1.7e308]
    _check(fields, U_MAX)
    fields["eta"][3] = 1e-6
    with pytest.raises(StepFailure, match="h_min") as failure:
        _check(fields, U_MAX)
    assert (failure.value.field, failure.value.column, failure.value.value) == (
        "eta", 3, 1e-6)
    fields["eta"][3] = 0.5
    fields["u"][1, 2], fields["u"][2, 7] = -U_MAX, U_MAX
    _check(fields, U_MAX)
    for spot, value in (((2, 7), np.nextafter(U_MAX, np.inf)),
                        ((1, 2), -np.nextafter(U_MAX, np.inf))):
        u = fields["u"].copy()
        u[spot] = value
        with pytest.raises(StepFailure, match="beyond") as failure:
            _check(dict(fields, u=u), U_MAX)
        assert (failure.value.layer, failure.value.column) == spot
        assert failure.value.value == value


def test_copy_is_deep(setup):
    mesh, layout = setup
    st = rest_state(mesh, layout, eta0=0.5)
    cp = st.copy()
    cp.eta[0] = 99.0
    cp.u[0, 0] = 1.0
    assert st.eta[0] == 0.5 and st.u[0, 0] == 0.0


def test_integrals(setup):
    mesh, layout = setup
    st = rest_state(mesh, layout, eta0=0.5)
    vol = float(np.sum((0.5 - mesh.b) * mesh.dx))
    assert total_volume(st, mesh) == pytest.approx(vol, rel=1e-14)
    st.rho[:] = 0.03
    assert total_density_mass(st, mesh, layout) == pytest.approx(0.03 * vol,
                                                                 rel=1e-14)


def test_phys_params_validation():
    with pytest.raises(ValueError):
        PhysParams(g=-1.0)
    with pytest.raises(ValueError):
        PhysParams(nu=-1e-3)
