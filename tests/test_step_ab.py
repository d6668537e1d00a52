"""The step timer (`tools/step_ab.py`): both sides step the same case and
their blocks alternate; whether their states stay byte-equal is reported,
and the command line runs the comparison in a child with one BLAS
thread."""

import importlib.util
import shutil
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
    ratio, iqr, won, blocks, same = results["lock_exchange_rk3"]
    assert blocks == 30 and 0 <= won <= 30 and ratio > 0.0 and iqr >= 0.0 and same
    assert f"(median of 30 blocks of 1 steps, IQR {iqr:.3f})" in step_ab.summary(
        results, steps=1)[0]
    assert step_ab.summary(results, steps=1)[1] == (
        "lock_exchange_rk3: states byte-equal after 45 steps")
    assert sys.modules["mlswe_parent"] is not sys.modules["mlswe"]


def test_states_that_differ_are_reported(monkeypatch, tmp_path):
    """A parent whose steps move the round-off is timed all the same, and
    its states are reported as differing, not raised."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "mlswe_parent", None)
    for name in [name for name in sys.modules if name.startswith("mlswe_parent.")]:
        monkeypatch.delitem(sys.modules, name)  # another test's parent
    step_ab = _load(ROOT / "tools" / "step_ab.py", "step_ab")
    shutil.copytree(ROOT / "src" / "mlswe", tmp_path / "mlswe")
    spatial = tmp_path / "mlswe" / "spatial.py"
    text = spatial.read_text()
    assert "-(self.params.g / self.dx_half)" in text
    spatial.write_text(text.replace("-(self.params.g / self.dx_half)",
                                    "-(self.params.g * (1.0 + 1e-15) / self.dx_half)"))
    results = step_ab.compare(tmp_path, ["lock_exchange_rk3"], blocks=30, steps=1)
    ratio, _, won, blocks, same = results["lock_exchange_rk3"]
    assert blocks == 30 and ratio > 0.0 and not same
    assert step_ab.summary(results, steps=1)[1] == (
        "lock_exchange_rk3: states differ within 45 steps")


def test_main_compares_in_a_child_with_one_blas_thread(monkeypatch, capsys):
    """`main` exports the parent and hands the comparison to bench_record's
    `paired_steps`, which runs it with the benchmark's one BLAS thread, by
    default in the blocks and steps that bench_record records."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    step_ab = _load(ROOT / "tools" / "step_ab.py", "step_ab")
    seen = []

    def fake(root, parent_src, cases, blocks, steps):
        seen.append((root, (parent_src / "mlswe" / "spatial.py").is_file(), cases,
                     blocks, steps))
        return {case: [1.0, 0.02, 15, blocks, True] for case in cases}
    monkeypatch.setattr(step_ab, "paired_steps", fake)
    assert step_ab.main(["--parent", "HEAD", "--case", "tidal_nvar4"]) == 0
    assert seen == [(ROOT, True, ["tidal_nvar4"], 40, 20)]
    assert capsys.readouterr().out.splitlines() == [
        "tidal_nvar4: change/parent 1.000 (median of 40 blocks of 20 steps, IQR 0.020), "
        "change faster in 15/40",
        "tidal_nvar4: states byte-equal after 815 steps"]
