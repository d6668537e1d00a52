import csv
import fcntl
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mlswe as m
from mlswe import cli, csvio
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
                       volume_drift=1.5e-13, density_mass_drift=2.5e-12,
                       failure="step 8 at t=1.25: non-finite value at rho[2, 5]: nan")
    path = tmp_path / "report.ini"
    csvio.write_report(path, report)
    data = csvio.read_report(path)
    r = data["report"]
    assert r["case"] == "demo" and r["verdict"] == "completed"
    assert int(r["steps"]) == 7 and int(r["rhs_evaluations"]) == 21
    assert float(r["t_end"]) == 1.25
    assert float(r["volume_drift"]) == 1.5e-13
    assert r["failure"] == report.failure
    assert list(data) == ["report"]


def test_write_run_and_load(tmp_path, tiny_result):
    out = csvio.write_run(tiny_result, tmp_path / "run")
    assert (out / "case.ini").exists() and (out / "report.ini").exists()
    times, paths = csvio.run_snapshots(out)
    assert times == tiny_result.times
    assert [csvio.read_snapshot(p)[0] for p in paths] == times
    meta = csvio.read_report(out / "case.ini")["case"]
    assert meta["name"] == "internal_wave"
    assert int(meta["cells"]) == 10
    assert float(meta["dt"]) == 0.04


def test_load_run_states_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        csvio.run_snapshots(tmp_path)


def test_percent_in_the_case_name_round_trips(tmp_path):
    """The metadata are written and read as they are: a `%` is no
    interpolation syntax."""
    spec = m.case_internal_wave(M=10, t_final=0.08, dt=0.04, output_interval=0.04)
    result = m.run_case(spec.with_options(name="lock 5%"))
    out = csvio.write_run(result, tmp_path / "run")
    assert csvio.read_report(out / "case.ini")["case"]["name"] == "lock 5%"
    assert csvio.read_report(out / "report.ini")["report"]["case"] == "lock 5%"


def test_run_snapshots_are_ordered_by_index(tmp_path):
    """Past five digits the names no longer sort as their indices do."""
    for k in (100000, 10001, 9999):
        (tmp_path / f"snapshot_{k:05d}.csv").write_text(
            ",".join(csvio.SNAPSHOT_COLUMNS) + f"\r\n{k / 10!r},0.5,0,eta,1.0\r\n")
    times, paths = csvio.run_snapshots(tmp_path)
    assert [p.name for p in paths] == [
        "snapshot_09999.csv", "snapshot_10001.csv", "snapshot_100000.csv"]
    assert times == [999.9, 1000.1, 10000.0]


def test_compare_parses_only_the_pair_it_compares(tmp_path, tiny_result, monkeypatch,
                                                   capsys):
    """Two runs of 3 snapshots each: `mlswe compare` parses the last common
    snapshot of each, and no other."""
    csvio.write_run(tiny_result, tmp_path / "a")
    csvio.write_run(tiny_result, tmp_path / "b")
    parsed = []

    def counting(path):
        parsed.append(Path(path).relative_to(tmp_path).as_posix())
        return csvio.read_snapshot(path)

    monkeypatch.setattr(cli, "read_snapshot", counting)
    assert cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert parsed == ["a/snapshot_00002.csv", "b/snapshot_00002.csv"]
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "t,field,rel_l2,rel_linf" and len(rows) == 4
    assert all(row.endswith(",0.0,0.0") for row in rows[1:])


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


def run_dir_bytes(run_dir) -> dict:
    """Each file of a run directory by name, with the wall_time line of
    report.ini left out (it is the only one that varies between runs)."""
    files = {}
    for path in sorted(Path(run_dir).iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        if path.name == "report.ini":
            lines = [line for line in lines if not line.startswith(b"wall_time")]
        files[path.name] = b"".join(lines)
    return files


@pytest.mark.parametrize("spec", [
    m.case_internal_wave(M=30, t_final=0.3, output_interval=0.08),
    m.case_tidal("nvar4", M=40, t_final=3 * 3600.0 + 600.0),
    m.case_internal_wave(dt=0.2, t_final=4.0, output_interval=0.2),
], ids=["internal_wave", "tidal_nvar4", "unstable"])
def test_streamed_run_dir_matches_the_finished_run(tmp_path, spec):
    """A run written as it is taken is the finished run's directory, byte for
    byte: the snapshots (the last one off the cadence, or none past the
    failure), case.ini and report.ini."""
    grid, report, snapshots = m.stream_case(spec)
    csvio.write_run_dir(tmp_path / "stream", spec, grid, snapshots, report)
    result = m.run_case(spec)
    csvio.write_run(result, tmp_path / "done")
    streamed, done = run_dir_bytes(tmp_path / "stream"), run_dir_bytes(tmp_path / "done")
    assert list(streamed) == list(done)
    assert len(done) == len(result.times) + 2
    assert streamed == done


def test_cli_run_dir_matches_the_finished_run(tmp_path, capsys):
    """`mlswe run` streams its snapshots; an unstable internal wave still
    writes what `write_run(run_case(spec))` writes, and exits 2."""
    out = tmp_path / "cli"
    assert cli.main(["run", "internal_wave", "--dt", "0.09", "--out", str(out)]) == 2
    printed = capsys.readouterr().out.splitlines()
    assert "verdict=unstable" in printed[0]
    assert printed[1].startswith("failure: step 29 at t=2.2699999999999996: ")
    csvio.write_run(m.run_case(m.case_internal_wave(dt=0.09)), tmp_path / "done")
    assert run_dir_bytes(out) == run_dir_bytes(tmp_path / "done")


def _no_child_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_shorter_rerun_leaves_no_stale_snapshot(tmp_path):
    """A second, shorter run into the same directory used to leave the first
    run's later snapshots behind, for `run_snapshots` and `mlswe compare` to
    read. Only files named snapshot_<digits>.csv are removed."""
    out = tmp_path / "run"
    assert cli.main(["run", "internal_wave", "--t-final", "1.6", "--out", str(out)]) == 0
    assert csvio.run_snapshots(out)[0] == pytest.approx([0.0, 0.4, 0.8, 1.2, 1.6])
    keep = ("notes.txt", "snapshot_notes.csv", "snapshot_00009.csv.bak")
    for name in keep:
        (out / name).write_text("kept\n")
    assert cli.main(["run", "internal_wave", "--t-final", "0.8", "--dt", "0.02",
                     "--out", str(out)]) == 0
    times, paths = csvio.run_snapshots(out)
    assert times == pytest.approx([0.0, 0.4, 0.8]) and len(paths) == 3
    assert csvio.read_report(out / "case.ini")["case"]["t_final"] == "0.8"
    assert all((out / name).read_text() == "kept\n" for name in keep)


@pytest.fixture()
def failing_second_snapshot(monkeypatch):
    """`_write_blocks` raises on a writer's second snapshot; a forked writer
    inherits the patch and its count."""
    write = csvio._write_blocks
    calls = []

    def fail_second(*args):
        calls.append(args[0])
        if len(calls) == 2:
            raise RuntimeError("no room")
        write(*args)

    monkeypatch.setattr(csvio, "_write_blocks", fail_second)


def test_a_failing_writer_names_its_snapshot(tmp_path, tiny_result, capsys,
                                             failing_second_snapshot):
    with pytest.raises(OSError, match="snapshot_00001.csv"):
        csvio.write_run(tiny_result, tmp_path / "run")
    assert not (tmp_path / "run" / "report.ini").exists()
    _no_child_remains()
    out = tmp_path / "cli"
    assert cli.main(["run", "internal_wave", "--t-final", "0.8", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "snapshot_00001.csv" in err
    assert not (out / "report.ini").exists()
    _no_child_remains()


@pytest.mark.parametrize("stop", [RuntimeError, KeyboardInterrupt])
def test_a_consumer_that_stops_keeps_what_was_written(tmp_path, tiny_result, stop):
    """The run's own exception comes out, after the writer has written every
    snapshot it was handed."""
    def two_then_stop():
        yield from zip(tiny_result.times[:2], tiny_result.states[:2])
        raise stop("consumer stopped")

    out = tmp_path / "run"
    with pytest.raises(stop, match="consumer stopped"):
        csvio.write_run_dir(out, tiny_result.spec, tiny_result.grid, two_then_stop(),
                            tiny_result.report)
    _no_child_remains()
    assert sorted(p.name for p in out.iterdir()) == ["snapshot_00000.csv",
                                                     "snapshot_00001.csv"]
    for k in range(2):
        ref = tmp_path / f"ref_{k}.csv"
        csvio.write_snapshot(ref, tiny_result.times[k], tiny_result.states[k],
                             tiny_result.grid)
        assert (out / f"snapshot_{k:05d}.csv").read_bytes() == ref.read_bytes()


def test_without_fork_the_run_is_written_in_process(tmp_path, tiny_result, monkeypatch):
    csvio.write_run(tiny_result, tmp_path / "forked")
    monkeypatch.delattr(os, "fork")
    csvio.write_run(tiny_result, tmp_path / "in_process")
    assert run_dir_bytes(tmp_path / "in_process") == run_dir_bytes(tmp_path / "forked")


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="Linux sets pipe sizes")
def test_the_pipe_holds_a_whole_snapshot(tmp_path, monkeypatch):
    """The run hands a snapshot over in one write, which does not wait for
    the writer as long as it keeps up: the default 64 KiB pipe would put the
    run to sleep twice in each 175 KB internal-wave record."""
    spec = m.case_internal_wave(t_final=0.0)
    grid, report, snapshots = m.stream_case(spec)
    pipes, sizes = [], []
    pipe, fork = os.pipe, os.fork
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    monkeypatch.setattr(os, "fork", lambda: sizes.append(
        fcntl.fcntl(pipes[-1][1], fcntl.F_GETPIPE_SZ)) or fork())
    csvio.write_run_dir(tmp_path, spec, grid, snapshots, report)
    M, n = grid.mesh.M, grid.layout.n_max
    assert len(sizes) == 1 and sizes[0] >= 8 * (1 + M + n * (2 * M + 1)) > 1 << 16
    _no_child_remains()


def test_an_interrupted_run_leaves_no_process(tmp_path):
    """Ctrl-C reaches `mlswe run` and its writer together, as one process
    group: the run reports the interrupt, writes no report, and no process
    of the group is left."""
    src = str(Path(m.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mlswe.cli", "run", "internal_wave", "--t-final", "40",
         "--out", str(tmp_path)], env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60.0
        while not (tmp_path / "snapshot_00001.csv").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        err = proc.communicate(timeout=60)[1]
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode != 0 and "KeyboardInterrupt" in err
    assert not (tmp_path / "report.ini").exists()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
