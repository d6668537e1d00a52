"""The in-process step timer (`tools/step_ab.py`): both sides step the same
case to byte-equal states before their blocks alternate."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_against_itself(monkeypatch):
    """The checkout's own sources as the parent: the states agree, also
    after the timed blocks, and every block pair gives a ratio."""
    # the tool's sys.path entries and the alias package leave with the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "mlswe_parent", None)
    step_ab = _load(ROOT / "tools" / "step_ab.py", "step_ab")
    results = step_ab.compare(ROOT / "src", ["lock_exchange_rk3"], blocks=30, steps=1)
    ratio, won, blocks, same = results["lock_exchange_rk3"]
    assert blocks == 30 and 0 <= won <= 30 and ratio > 0.0 and same
    assert step_ab.summary(results, steps=1)[1] == (
        "lock_exchange_rk3: states byte-equal after 45 steps")
    assert sys.modules["mlswe_parent"] is not sys.modules["mlswe"]
