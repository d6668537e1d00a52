"""The paired benchmark record (`tools/bench_record.py`): the runs of the
parent and of the change alternate, and each side keeps its own runs."""

import importlib.util
from pathlib import Path

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
        side = "parent" if root == tmp_path else "change"
        calls.append((workload, side, trace))
        n = len(calls)
        metrics = {k: {"value": float(n)}
                   for k in ("setup_s", "run_s", "step_ms", "peak_rss_mb")}
        return {"metrics": metrics, "correct": n, "attempted": n, "failed": 0}

    monkeypatch.setattr(br, "bench_run", fake_run)
    monkeypatch.setattr(br, "speed_probe", lambda: 1.0)
    result = br.record(tmp_path)

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
    # the medians printed per workload and side include run_s
    printed = capsys.readouterr().err.splitlines()
    assert len(printed) == 2 * len(result["workloads"])
    assert all("'run_s': " in line for line in printed)
