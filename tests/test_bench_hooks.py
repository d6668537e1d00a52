"""The benchmark's trace hooks (`bench/spans.py`) wrap mlswe functions by
module and name; a renamed function would silently drop out of
`bench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.FUNCTIONS
    for label, (module, attr) in spans.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), label
    integrators = importlib.import_module("mlswe.integrators")
    assert callable(integrators.sla.solve_banded)
    for cls in (integrators.IMEXIntegrator, integrators.RK3Integrator):
        assert callable(cls.step)
