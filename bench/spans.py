"""Spans around the public calls into mlswe, installed from outside.

Each traced function is replaced, in every mlswe module namespace that binds
it, by a wrapper that records its call count, its total time and its self
time (total minus the time of traced calls made inside it). Nothing under
src/ changes: the wrappers sit where the callers look the functions up, and
`uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time

# metric label -> (module, attribute) of the function traced under it
SPATIAL = ("compute_tendencies", "prepare_fields", "boundary_values",
           "interface_cell_scalars", "mass_transfer", "momentum_advection",
           "baroclinic_gradient", "momentum_transfer_term", "density_rhs_flux",
           "vertical_density_term", "viscous_coefficients", "viscous_exchange")
FUNCTIONS = {
    **{f"spatial.{name}": ("mlswe.spatial", name) for name in SPATIAL},
    "integrators.build_implicit_workspace": ("mlswe.integrators", "build_implicit_workspace"),
    "integrators.implicit_stage_solve": ("mlswe.integrators", "implicit_stage_solve"),
    "integrators.vertical_solve": ("mlswe.integrators", "_thomas"),
    "integrators.implicit_residual": ("mlswe.integrators", "implicit_residual"),
    "integrators.courant_numbers": ("mlswe.integrators", "courant_numbers"),
    "harness.run_case": ("mlswe.harness", "run_case"),
    "csvio.write_run": ("mlswe.csvio", "write_run"),
    "cases.build_problem": ("mlswe.cases", "build_problem"),
}
STEP = "integrators.step"
HORIZONTAL_SOLVE = "integrators.horizontal_solve"
ALL_LABELS = (STEP, HORIZONTAL_SOLVE, *FUNCTIONS)


class Stat:
    __slots__ = ("calls", "total", "own", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.durations = [] if keep_durations else None


class _BandedProxy:
    """Stands in for `scipy.linalg` inside mlswe.integrators, whose only
    use of it is the banded free-surface solve."""

    def __init__(self, module, solve_banded):
        self._module = module
        self.solve_banded = solve_banded

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Install with `with Tracer(labels) as tr:`; read `tr.stats` after.

    `labels` selects what is traced (default: everything). The step label
    also keeps every call's duration, for the step-time distribution.
    """

    def __init__(self, labels=ALL_LABELS):
        unknown = set(labels) - set(ALL_LABELS)
        if unknown:
            raise ValueError(f"unknown trace labels {sorted(unknown)}")
        self.labels = tuple(labels)
        self.stats = {}
        self._open = []           # child time accumulated by each open span
        self._restore = []        # (owner, attribute, original)

    def _wrap(self, label, fn):
        if label not in self.stats:
            self.stats[label] = Stat(keep_durations=label == STEP)
        stat = self.stats[label]
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                stat.calls += 1
                stat.total += dt
                stat.own += dt - child
                if stat.durations is not None:
                    stat.durations.append(dt)
        return traced

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        import mlswe.cli  # noqa: F401  (so its bindings are patched too)
        import mlswe.integrators as integrators

        modules = [m for n, m in sys.modules.items()
                   if (n == "mlswe" or n.startswith("mlswe.")) and m is not None]
        for label in self.labels:
            if label == STEP:
                for cls in (integrators.IMEXIntegrator, integrators.RK3Integrator):
                    self._patch(cls, "step", self._wrap(STEP, cls.step))
            elif label == HORIZONTAL_SOLVE:
                solve = self._wrap(label, integrators.sla.solve_banded)
                self._patch(integrators, "sla", _BandedProxy(integrators.sla, solve))
            else:
                mod_name, attr = FUNCTIONS[label]
                original = getattr(sys.modules[mod_name], attr)
                wrapped = self._wrap(label, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapped)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
