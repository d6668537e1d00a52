import numpy as np
import pytest

from mlswe import (PhysParams, State, StepFailure, build_mesh, rest_state,
                   total_density_mass, total_volume, uniform_layout)


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
