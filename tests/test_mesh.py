import numpy as np
import pytest

from mlswe import PhysParams, build_mesh, closed, periodic, uniform_layout
from mlswe.spatial import Grid


def _grid(mesh, bounds):
    return Grid(mesh=mesh, layout=uniform_layout(mesh, 1), params=PhysParams(),
                bounds=bounds)


def test_uniform_mesh_geometry():
    mesh = build_mesh(-10.0, 10.0, 200)
    assert mesh.M == 200
    assert mesh.length == pytest.approx(20.0)
    assert np.allclose(mesh.dx, 0.1)
    assert mesh.x_iface[0] == -10.0 and mesh.x_iface[-1] == 10.0
    assert np.allclose(mesh.x_center, 0.5 * (mesh.x_iface[:-1] + mesh.x_iface[1:]))
    # interior center-to-center spacings; an end takes its cell's width
    dx_half = _grid(mesh, closed()).dx_half
    assert np.allclose(dx_half[1:-1], 0.1)
    assert dx_half[0] == pytest.approx(0.1)
    assert dx_half[-1] == pytest.approx(0.1)


def test_callable_and_constant_bathymetry():
    mesh = build_mesh(0.0, 1.0, 10, bathymetry=0.25)
    assert np.allclose(mesh.b, 0.25)
    mesh2 = build_mesh(0.0, 1.0, 10, bathymetry=lambda x: x ** 2)
    assert np.allclose(mesh2.b, mesh2.x_center ** 2)


def test_explicit_interfaces():
    xi = np.array([0.0, 0.5, 1.5, 3.0, 5.0])
    mesh = build_mesh(0.0, 5.0, x_iface=xi)
    assert mesh.M == 4
    assert np.allclose(mesh.dx, np.diff(xi))
    # widths 0.5, 1, 1.5, 2: the ends take theirs, or the spacing across the wrap
    assert _grid(mesh, closed()).dx_half.tolist() == [0.5, 0.75, 1.25, 1.75, 2.0]
    assert _grid(mesh, periodic()).dx_half.tolist() == [1.25, 0.75, 1.25, 1.75, 1.25]


def test_invalid_meshes_rejected():
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, x_iface=[0.0, 0.2, 0.1, 1.0])
