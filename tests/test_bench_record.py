"""The paired benchmark record (`tools/bench_record.py`): the runs of the
parent and of the change alternate, each side keeps its own runs, both run
from exported trees, the record names the host and holds each side's final
state hash and the paired step timing of `tools/step_ab.py`, both taken
with the benchmark's one BLAS thread."""

import hashlib
import importlib.util
import json
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

    def fake_steps(root, parent_src, cases, blocks, steps):
        assert (root, parent_src, blocks, steps) == (
            change, parent / "src", br.STEP_AB_BLOCKS, br.STEP_AB_STEPS)
        calls.append((*cases, "step_ab", None))
        return {case: [0.99, 0.04, blocks - 1, blocks, case != "tidal_nvar4"]
                for case in cases}

    monkeypatch.setattr(br, "bench_run", fake_run)
    monkeypatch.setattr(br, "final_state_hash", fake_hash)
    monkeypatch.setattr(br, "paired_steps", fake_steps)
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
        # step_ab once, after the workload's timed runs; differing states
        # are recorded, not raised
        assert [side for w, side, _ in calls if w == name][2 * br.PAIRS + 2:] == ["step_ab"]
        assert entry["step_ab"] == {"ratio": 0.99, "iqr": 0.04,
                                    "won": br.STEP_AB_BLOCKS - 1,
                                    "blocks": br.STEP_AB_BLOCKS,
                                    "steps": br.STEP_AB_STEPS,
                                    "states_equal": name != "tidal_nvar4"}
    # the medians printed per workload and side include run_s, then step_ab
    printed = capsys.readouterr().err.splitlines()
    assert len(printed) == 3 * len(result["workloads"])
    assert all("'run_s': " in line for line in printed[0::3] + printed[1::3])
    assert all(": step_ab {'ratio': 0.99" in line for line in printed[2::3])


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

    def fake_steps(root, parent_src, cases, blocks, steps):
        roots.update((root, parent_src.parent))
        return {case: [1.0, 0.0, 0, blocks, True] for case in cases}

    monkeypatch.setattr(br, "bench_run", fake_run)
    monkeypatch.setattr(br, "final_state_hash", fake_hash)
    monkeypatch.setattr(br, "paired_steps", fake_steps)
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
    it was. The hash runs with one BLAS thread and this process with its
    default, so the workload is the RK3 lock exchange, whose bits did not
    move with the thread count or the BLAS kernel (ROADMAP item 13); the
    internal wave's did."""
    br = _load_bench_record()
    bench = sorted((br.ROOT / "bench").rglob("*"))
    # workloads.case("lock_exchange_rk3")
    result = m.run_case(m.case_lock_exchange(integrator="rk3", dt=None, target_ccel=0.9))
    s = result.states[-1]
    arrays = (np.float64(result.times[-1]), s.eta, s.u, s.rho)
    expected = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    assert br.final_state_hash(br.ROOT, "lock_exchange_rk3") == expected
    assert sorted((br.ROOT / "bench").rglob("*")) == bench


def test_children_take_the_benchmarks_thread_settings(monkeypatch):
    """The final-state hash and step_ab run in children with each of the
    THREAD_VARS that bench/run.py sets for its workers set as it sets them,
    read from that file; a BLAS reads them only when numpy loads."""
    br = _load_bench_record()
    monkeypatch.syspath_prepend(str(br.ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", br.ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.THREAD_VARS and all(br.thread_env()[v] == "1" for v in run.THREAD_VARS)
    seen = f"import json, os; print(json.dumps([os.environ.get(v) for v in {run.THREAD_VARS!r}]))"
    monkeypatch.setattr(br, "_FINAL_STATE_HASH", seen)
    monkeypatch.setattr(br, "_STEP_AB", seen)
    ones = ["1"] * len(run.THREAD_VARS)
    assert json.loads(br.final_state_hash(br.ROOT, "internal_wave_cli")) == ones
    assert br.paired_steps(br.ROOT, br.ROOT / "src", ["lock_exchange_rk3"], 30, 1) == ones


def test_step_ab_runs_in_a_child_and_leaves_the_tree_as_it_was(tmp_path, monkeypatch):
    """step_ab's comparison run for real in a child process, in an export
    of the checkout against its own sources: byte-equal states and a ratio
    per block pair, and no file written into the tree, not even where the
    environment would let Python write bytecode."""
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    br = _load_bench_record()
    br.export_checkout(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    result = br.paired_steps(tmp_path, tmp_path / "src", ["lock_exchange_rk3"], 30, 1)
    ratio, iqr, won, blocks, same = result["lock_exchange_rk3"]
    assert blocks == 30 and 0 <= won <= 30 and ratio > 0.0 and iqr >= 0.0
    assert same is True
    assert sorted(tmp_path.rglob("*")) == before
