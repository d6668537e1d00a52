"""The benchmark's trace hooks (`bench/spans.py`) wrap mlswe functions by
module and name; a renamed function would silently drop out of
`bench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import mlswe as m

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_resolves():
    spans = _load_spans()
    assert spans.FUNCTIONS
    for label, (module, attr) in spans.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), label
    integrators = importlib.import_module("mlswe.integrators")
    assert callable(integrators.sla.solve_banded)
    for cls in (integrators.IMEXIntegrator, integrators.RK3Integrator):
        assert callable(cls.step)


def test_horizontal_solve_is_traced():
    """The bench's horizontal-solve layer wraps `sla.solve_banded` as
    mlswe.integrators looks it up; an IMEX step must go through it."""
    spans = _load_spans()
    grid, state = m.build_problem(m.case_internal_wave(M=24))
    with spans.Tracer(("integrators.horizontal_solve",)) as tracer:
        m.IMEXIntegrator(grid).step(state, 0.0, 0.04)
    assert tracer.stats["integrators.horizontal_solve"].calls > 0


def test_vertical_operator_is_traced():
    """One IMEX step with vertical exchange builds A once, evaluates its
    explicit tendency once and solves the column systems three times (one
    velocity response, one solve per implicit stage), each under the label
    the benchmark's per-layer record reads."""
    spans = _load_spans()
    labels = ("spatial.viscous_coefficients", "spatial.viscous_exchange",
              "integrators.vertical_solve")
    grid, state = m.build_problem(m.case_tidal("nvar4", M=40))
    with spans.Tracer(labels) as tracer:
        m.IMEXIntegrator(grid).step(state, 0.0, 20.0)
    assert [tracer.stats[label].calls for label in labels] == [1, 1, 3]
