import csv

import numpy as np
import pytest

import mlswe as m
from mlswe import csvio
from mlswe.harness import RunReport


@pytest.fixture()
def tiny_result():
    spec = m.case_internal_wave(M=10, t_final=0.08, dt=0.04,
                                output_interval=0.04)
    return m.run_case(spec)


def test_snapshot_round_trip_is_exact(tmp_path, tiny_result):
    grid = tiny_result.grid
    state = tiny_result.states[-1]
    path = tmp_path / "snap.csv"
    csvio.write_snapshot(path, tiny_result.times[-1], state, grid)
    t, fields = csvio.read_snapshot(path)
    assert t == tiny_result.times[-1]
    assert set(fields) == {"eta", "u", "rho"}
    mesh, layout = grid.mesh, grid.layout
    for i in range(mesh.M):
        assert fields["eta"][(mesh.x_center[i], 0)] == state.eta[i]
    for j in range(mesh.M + 1):
        for a in range(layout.n_half[j]):
            assert fields["u"][(mesh.x_iface[j], a + 1)] == state.u[a, j]
    for i in range(mesh.M):
        for a in range(layout.n_int[i]):
            assert fields["rho"][(mesh.x_center[i], a + 1)] == state.rho[a, i]


def test_snapshot_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        csvio.read_snapshot(path)


def test_report_round_trip(tmp_path):
    report = RunReport(case="demo", integrator="imex", steps=7, n_rhs=21,
                       n_implicit=14, wall_time=0.5, verdict="completed",
                       t_end=1.25, max_ccel=0.3125, max_cvel=0.0625,
                       volume_drift=1.5e-13, density_mass_drift=2.5e-12)
    path = tmp_path / "report.ini"
    csvio.write_report(path, report)
    data = csvio.read_report(path)
    r = data["report"]
    assert r["case"] == "demo" and r["verdict"] == "completed"
    assert int(r["steps"]) == 7 and int(r["rhs_evaluations"]) == 21
    assert float(r["t_end"]) == 1.25
    assert float(r["volume_drift"]) == 1.5e-13
    assert list(data) == ["report"]


def test_write_run_and_load(tmp_path, tiny_result):
    out = csvio.write_run(tiny_result, tmp_path / "run")
    assert (out / "case.ini").exists() and (out / "report.ini").exists()
    times, snaps = csvio.load_run_states(out)
    assert times == pytest.approx(tiny_result.times)
    assert len(snaps) == len(tiny_result.states)
    meta = csvio.read_report(out / "case.ini")["case"]
    assert meta["name"] == "internal_wave"
    assert int(meta["cells"]) == 10
    assert float(meta["dt"]) == 0.04


def test_load_run_states_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        csvio.load_run_states(tmp_path)


def test_output_root(tmp_path, monkeypatch):
    assert csvio.output_root("/x/y") == csvio.Path("/x/y")
    monkeypatch.setenv(csvio.OUTPUT_ROOT_ENV, str(tmp_path))
    assert csvio.output_root() == tmp_path
    monkeypatch.delenv(csvio.OUTPUT_ROOT_ENV)
    assert csvio.output_root() == csvio.Path(".")


def _csv_writer_snapshot(path, t, state, grid):
    """The snapshot written row by row through csv.writer (reference)."""
    mesh, layout = grid.mesh, grid.layout
    fmt = lambda v: repr(float(v))  # noqa: E731
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(csvio.SNAPSHOT_COLUMNS)
        for i in range(mesh.M):
            w.writerow([fmt(t), fmt(mesh.x_center[i]), 0, "eta", fmt(state.eta[i])])
        for j in range(mesh.M + 1):
            for a in range(layout.n_half[j]):
                w.writerow([fmt(t), fmt(mesh.x_iface[j]), a + 1, "u",
                            fmt(state.u[a, j])])
        for i in range(mesh.M):
            for a in range(layout.n_int[i]):
                w.writerow([fmt(t), fmt(mesh.x_center[i]), a + 1, "rho",
                            fmt(state.rho[a, i])])


def test_snapshot_bytes_match_csv_writer(tmp_path):
    grid, state = m.build_problem(m.case_tidal(layout="nvar4", M=30))
    rng = np.random.default_rng(11)
    state.eta = state.eta - rng.random(state.eta.shape)
    state.u = rng.standard_normal(state.u.shape) * 10.0 ** rng.integers(
        -300, 300, state.u.shape)
    state.u[0, :3] = [-0.0, -np.inf, np.nan]
    state.rho = -rng.random(state.rho.shape) * 1e-17
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    csvio.write_snapshot(fast, 3.0e7 + 1.0 / 3.0, state, grid)
    _csv_writer_snapshot(slow, 3.0e7 + 1.0 / 3.0, state, grid)
    assert fast.read_bytes() == slow.read_bytes()
