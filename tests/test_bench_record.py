"""The paired benchmark record (`tools/bench_record.py`): the runs of the
parent and of the change alternate, each side keeps its own runs, both run
from exported trees, the record names the host and holds each side's final
state hash."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

import mlswe as m

BENCH_RECORD = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


def _load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", BENCH_RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_alternates_parent_and_change(monkeypatch, tmp_path, capsys):
    br = _load_bench_record()
    calls = []

    def fake_run(root, command, workload, seconds, trace):
        side = {parent: "parent", change: "change"}[root]
        calls.append((workload, side, trace))
        n = len(calls)
        metrics = {k: {"value": float(n)}
                   for k in ("setup_s", "run_s", "step_ms", "peak_rss_mb")}
        return {"metrics": metrics, "correct": n, "attempted": n, "failed": 0}

    def fake_hash(root, workload):  # the change moves tidal_nvar4's bits
        side = {parent: "parent", change: "change"}[root]
        return workload + (side if workload == "tidal_nvar4" else "")

    monkeypatch.setattr(br, "bench_run", fake_run)
    monkeypatch.setattr(br, "final_state_hash", fake_hash)
    monkeypatch.setattr(br, "speed_probe", lambda: 1.0)
    parent, change = tmp_path / "parent", tmp_path / "change"
    result = br.record(parent, change)

    assert result["repeat"] == br.PAIRS
    for name, entry in result["workloads"].items():
        sides = [side for w, side, trace in calls if w == name and trace == 0]
        assert sides == ["parent", "change", "change", "parent"] * (br.PAIRS // 2)
        assert [side for w, side, trace in calls if w == name and trace == 1] == [
            "parent", "change"]
        for summary in (entry, entry["parent"]):
            runs = summary["end_to_end"]["runs"]
            assert len(runs) == br.PAIRS
            assert summary["end_to_end"]["fastest"] == min(runs, key=lambda v: v["step_ms"])
        # each run lands on its own side, in pair order
        order = [i + 1 for i, (w, s, t) in enumerate(calls) if w == name and t == 0]
        parent_n = [order[i] for i, s in enumerate(sides) if s == "parent"]
        change_n = [order[i] for i, s in enumerate(sides) if s == "change"]
        assert [r["step_ms"] for r in entry["parent"]["end_to_end"]["runs"]] == parent_n
        assert [r["step_ms"] for r in entry["end_to_end"]["runs"]] == change_n
        for summary, root in ((entry, change), (entry["parent"], parent)):
            assert summary["final_state_sha256"] == fake_hash(root, name)
        assert entry["final_states_match"] == (name != "tidal_nvar4")
    # the medians printed per workload and side include run_s
    printed = capsys.readouterr().err.splitlines()
    assert len(printed) == 2 * len(result["workloads"])
    assert all("'run_s': " in line for line in printed)


def test_both_sides_run_from_alike_exports(monkeypatch):
    """The parent and the change each run from an export, never from the
    checkout, and the two exports' paths are as long: the memory a run
    reads moves with where its tree lies. The change's export is the
    checkout's tracked files as they are on disk."""
    br = _load_bench_record()
    roots = set()

    def fake_run(root, command, workload, seconds, trace):
        roots.add(root)
        metrics = {k: {"value": 1.0}
                   for k in ("setup_s", "run_s", "step_ms", "peak_rss_mb")}
        return {"metrics": metrics, "correct": 1, "attempted": 1, "failed": 0}

    def fake_hash(root, workload):
        roots.add(root)
        return "0" * 64

    monkeypatch.setattr(br, "bench_run", fake_run)
    monkeypatch.setattr(br, "final_state_hash", fake_hash)
    monkeypatch.setattr(br, "speed_probe", lambda: 1.0)
    with br.exported_trees("HEAD") as (parent, change, commit):
        result = br.record(parent, change)
        assert roots == {parent, change}
        assert br.ROOT not in roots and len(str(parent)) == len(str(change))
        for name in ("bench/run.py", "tools/bench_record.py", "tests/test_bench_record.py"):
            assert (change / name).read_bytes() == (br.ROOT / name).read_bytes()
            assert (parent / name).is_file()
    assert len(commit) == 40
    assert result["src_mlswe_lines"] == br.src_lines(br.ROOT)


def test_record_names_the_host(monkeypatch, tmp_path):
    """A record from another host can tell a BLAS kernel from a change: it
    names the CPU model, the OPENBLAS_CORETYPE the runs inherit and numpy's
    version."""
    br = _load_bench_record()
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    host = br.machine()
    assert {"cpus", "machine", "python", "cpu_model"} <= host.keys()
    assert (host["openblas_coretype"], host["numpy"]) == ("Haswell", np.__version__)
    monkeypatch.delenv("OPENBLAS_CORETYPE")
    assert br.machine()["openblas_coretype"] is None

    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text("processor\t: 0\nmodel name\t: Some CPU @ 2.0GHz\nflags\t: fpu\n")
    assert br.cpu_model(cpuinfo) == "Some CPU @ 2.0GHz"
    assert br.cpu_model(tmp_path / "absent") is None


def test_final_state_hash_is_the_workloads_run_case():
    """The hash is that of the bytes of the final (t, eta, u, rho) of a
    `run_case` of the workload, run in the given tree, which it leaves as
    it was."""
    br = _load_bench_record()
    bench = sorted((br.ROOT / "bench").rglob("*"))
    result = m.run_case(m.case_internal_wave())  # workloads.case("internal_wave_cli")
    s = result.states[-1]
    arrays = (np.float64(result.times[-1]), s.eta, s.u, s.rho)
    expected = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    assert br.final_state_hash(br.ROOT, "internal_wave_cli") == expected
    assert sorted((br.ROOT / "bench").rglob("*")) == bench
