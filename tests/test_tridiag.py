"""The free-surface tridiagonal kernel (`mlswe.tridiag`): against dense
solves, against LAPACK's dgtsv where scipy is installed, and the import
path that it keeps free of scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlswe as m
from mlswe import tridiag
from mlswe.integrators import build_implicit_workspace
from mlswe.spatial import prepare_fields, viscous_coefficients

SRC = Path(m.__file__).resolve().parents[1]


def free_surface_band(W, fac):
    """(3, M) band of 1 + fac (W_i + W_{i+1}) on the diagonal and -fac W
    off it, in `scipy.linalg.solve_banded`'s (1, 1) layout."""
    M = fac.size
    ab = np.zeros((3, M))
    ab[0, 1:] = -fac[:-1] * W[1:M]
    ab[1] = 1.0 + fac * (W[:M] + W[1:])
    ab[2, :-1] = -fac[1:] * W[1:M]
    return ab


def dense(ab):
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


def systems(uniform_fac, seed):
    """Random free-surface systems, W >= 0 over six decades; a per-row fac
    makes them diagonally dominant by rows only, a uniform one by columns
    too."""
    rng = np.random.default_rng(seed)
    for M in (1, 2, 3, 8, 50, 200):
        for scale in (1e-3, 1.0, 1e3):
            W = scale * rng.random(M + 1)
            fac = np.full(M, rng.random()) if uniform_fac else rng.random(M)
            yield free_surface_band(W, fac), rng.standard_normal(M)


def test_kernel_matches_dense_solve():
    for ab, rhs in systems(uniform_fac=False, seed=1):
        x = tridiag.solve_banded(tridiag.factor(ab), rhs)
        want = np.linalg.solve(dense(ab), rhs)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want)), ab.shape


def test_periodic_corner_update_matches_dense_cyclic_solve():
    """The workspace's Sherman-Morrison pieces (the corner-modified matrix,
    factored, its response z, r and v.z) solve the cyclic free-surface
    system as a dense solve does."""
    mesh = m.build_mesh(0.0, 1.0, 24)
    layout = m.uniform_layout(mesh, 3)
    grid = m.Grid(mesh=mesh, layout=layout, params=m.PhysParams(nu=5e-4),
                  bounds=m.periodic())
    state = m.rest_state(mesh, layout, eta0=1.0)
    state.eta = state.eta + 0.05 * np.sin(2 * np.pi * mesh.x_center)
    state.u = state.u + 0.1 * np.cos(2 * np.pi * mesh.x_iface)[None, :]
    fs = prepare_fields(state, grid, 0.0)
    ws = build_implicit_workspace(grid, fs.h_half,
                                  viscous_coefficients(grid, fs.h_half, fs.u), 0.3)
    W, fac, M = ws.W, ws.fac, mesh.M
    A = dense(free_surface_band(W, fac))
    A[0, -1], A[-1, 0] = -fac[0] * W[0], -fac[-1] * W[M]
    rhs = np.random.default_rng(4).standard_normal(M)
    eta = tridiag.solve_banded(ws.factors, rhs)
    eta = eta - ws.z * ((eta[0] + ws.r * eta[-1]) / (1.0 + ws.v_z))
    want = np.linalg.solve(A, rhs)
    assert np.max(np.abs(eta - want)) <= 1e-12 * np.max(np.abs(want))


def test_kernel_equals_lapack_dgtsv_bitwise():
    """On a matrix dominant by columns dgtsv makes no row interchange, and
    the kernel performs its operations in its order."""
    sla = pytest.importorskip("scipy.linalg")
    for ab, rhs in systems(uniform_fac=True, seed=5):
        x = tridiag.solve_banded(tridiag.factor(ab), rhs)
        assert np.array_equal(x, sla.solve_banded((1, 1), ab, rhs)), ab.shape


def test_mlswe_runs_without_importing_scipy(tmp_path):
    """`import mlswe` and an IMEX run through the CLI load no scipy module."""
    script = (
        "import sys\n"
        "import mlswe\n"
        "from mlswe.cli import main\n"
        "def scipy_modules():\n"
        "    return [n for n in sys.modules if n.split('.')[0] == 'scipy']\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "rc = main(['run', 'internal_wave', '--t-final', '0.2',\n"
        "           '--output-interval', '0.2', '--out', sys.argv[1]])\n"
        "assert rc == 0, rc\n"
        "assert not scipy_modules(), scipy_modules()\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "iw")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "verdict=completed" in proc.stdout
