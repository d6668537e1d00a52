"""Each output check passes on the real output and rejects a perturbed one.

    python3 -m pytest bench

Runs each workload once (about 40 s in all) and then perturbs copies of
its output: a volume or density-content leak, a density overshoot, fronts
20% slower, a Courant number off by more than 5%, a truncated or missing
snapshot file, a non-finite value, a dry cell.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import mlswe  # noqa: E402
import mlswe.cli  # noqa: E402

import checks  # noqa: E402
from workloads import case, checks_of  # noqa: E402


@pytest.fixture(scope="module")
def iw_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("internal_wave")
    assert mlswe.cli.main(["run", "internal_wave", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def iw(iw_dir):
    return checks.read_csv_run(iw_dir)


def _run(name):
    result = mlswe.run_case(case(name))
    assert result.report.verdict == "completed"
    return checks.from_states(result.times, result.states)


@pytest.fixture(scope="module")
def lock():
    return _run("lock_exchange_rk3")


@pytest.fixture(scope="module")
def tidal():
    return _run("tidal_nvar4")


def copy(s: checks.Snapshots) -> checks.Snapshots:
    return dataclasses.replace(s, times=s.times.copy(), eta=s.eta.copy(),
                               u=s.u.copy(), rho=s.rho.copy())


def failing(name, snaps) -> set:
    return {c.name for c in checks_of(name, snaps) if not c.passed}


@pytest.mark.parametrize("name", ["internal_wave_cli", "lock_exchange_rk3",
                                  "tidal_nvar4"])
def test_real_output_passes(name, request):
    snaps = request.getfixturevalue({"internal_wave_cli": "iw",
                                     "lock_exchange_rk3": "lock",
                                     "tidal_nvar4": "tidal"}[name])
    assert failing(name, snaps) == set()


# ---------------------------------------------------------------------------
# internal wave, read back from CSV


def test_iw_truncated_snapshot(iw_dir, tmp_path):
    for p in iw_dir.iterdir():
        (tmp_path / p.name).write_bytes(p.read_bytes())
    victim = tmp_path / "snapshot_00020.csv"
    lines = victim.read_text().splitlines(keepends=True)
    victim.write_text("".join(lines[:-1]))
    assert "rows_per_snapshot" in failing("internal_wave_cli", checks.read_csv_run(tmp_path))


def test_iw_missing_snapshot(iw):
    s = copy(iw)
    keep = np.arange(len(s.times)) != 20
    s = dataclasses.replace(s, times=s.times[keep], eta=s.eta[keep], u=s.u[keep],
                            rho=s.rho[keep], rows=[r for r, k in zip(s.rows, keep) if k])
    assert failing("internal_wave_cli", s) == {"snapshot_count"}


def test_iw_volume_leak(iw):
    s = copy(iw)
    s.eta[-1] *= 1.0 + 1e-10
    assert "volume" in failing("internal_wave_cli", s)


def test_iw_density_content_leak(iw):
    s = copy(iw)
    s.rho[-1] *= 1.0 + 1e-9
    assert failing("internal_wave_cli", s) == {"density_content"}


def test_iw_courant_off(iw):
    s = copy(iw)
    k = int(np.argmin(np.abs(s.times - 4.8)))
    s.u[k] += 0.2          # C_cel and C_vel both up by 0.2 m/s * dt/dx = 0.8
    assert failing("internal_wave_cli", s) == {"c_cel_at_4.8s", "c_vel_at_4.8s"}


def test_iw_density_overshoot(iw):
    s = copy(iw)
    s.rho[-1, 30, 100] = 0.0301
    assert failing("internal_wave_cli", s) == {"density_range", "density_content"}


# ---------------------------------------------------------------------------
# lock exchange under RK3


def test_lock_volume_leak(lock):
    s = copy(lock)
    s.eta[-1] *= 1.0 + 1e-10
    assert "volume" in failing("lock_exchange_rk3", s)


def test_lock_density_content_leak(lock):
    s = copy(lock)
    s.rho[-1] *= 1.0 - 1e-9
    assert failing("lock_exchange_rk3", s) == {"density_content"}


def test_lock_density_beyond_round_off(lock):
    s = copy(lock)
    s.rho[-1] = np.minimum(s.rho[-1] * (1.0 + 1e-10), 0.03 + 3e-12)
    assert "density_range" in failing("lock_exchange_rk3", s)


def test_lock_fronts_20_percent_slower(lock):
    s = copy(lock)
    s.times *= 1.25        # same positions reached later: slopes times 0.8
    assert failing("lock_exchange_rk3", s) == {"front_speed_bottom",
                                               "front_speed_surface"}


# ---------------------------------------------------------------------------
# tidal, variable layer count


def test_tidal_non_finite(tidal):
    s = copy(tidal)
    s.u[-1, 2, 300] = np.nan
    assert "finite" in failing("tidal_nvar4", s)


def test_tidal_dry_cell(tidal):
    s = copy(tidal)
    grid, _ = mlswe.build_problem(case("tidal_nvar4"))
    s.eta[-1, 3] = grid.mesh.b[3]
    assert "depth" in failing("tidal_nvar4", s)


def test_tidal_courant_off(tidal):
    s = copy(tidal)
    grid, _ = mlswe.build_problem(case("tidal_nvar4"))
    s.eta[:] = grid.mesh.b + 1.12 * (s.eta - grid.mesh.b)   # C_cel ~ sqrt(h): +5.8%
    assert failing("tidal_nvar4", s) == {"max_c_cel"}


def test_tidal_density_overshoot(tidal):
    s = copy(tidal)
    s.rho[-1, 0, 400] = 0.031
    assert failing("tidal_nvar4", s) == {"density_range"}
