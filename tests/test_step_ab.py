"""The in-process step timer (`tools/step_ab.py`): both sides step the same
case to byte-equal states before their blocks alternate."""

import importlib.util
import sys
from pathlib import Path

import mlswe as m

ROOT = Path(__file__).resolve().parents[1]


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cases_are_the_benchmark_workloads(monkeypatch):
    step_ab = _load(ROOT / "tools" / "step_ab.py", "step_ab")
    monkeypatch.setattr(sys, "path", list(sys.path))  # workloads.py extends it
    workloads = _load(ROOT / "bench" / "workloads.py", "bench_workloads")
    assert sorted(step_ab.CASES) == sorted(workloads.WORKLOADS)
    # and each case builds the spec its workload runs
    for name, (factory, kwargs) in step_ab.CASES.items():
        tool, bench = getattr(m, factory)(**kwargs), workloads.case(name)
        for field in ("name", "integrator", "dt", "target_ccel", "t_final",
                      "limiter", "M"):
            assert getattr(tool, field) == getattr(bench, field), (name, field)


def test_checkout_against_itself(monkeypatch):
    """The checkout's own sources as the parent: the states agree, and every
    block pair gives a ratio."""
    step_ab = _load(ROOT / "tools" / "step_ab.py", "step_ab")
    # the alias package leaves sys.modules with the test
    monkeypatch.setitem(sys.modules, "mlswe_parent", None)
    results = step_ab.compare(ROOT / "src", ["lock_exchange_rk3"], blocks=30, steps=1)
    ratio, won, blocks = results["lock_exchange_rk3"]
    assert blocks == 30 and 0 <= won <= 30 and ratio > 0.0
    assert sys.modules["mlswe_parent"] is not sys.modules["mlswe"]
