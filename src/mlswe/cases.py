"""The three benchmark configurations: internal gravity wave, lock exchange
and tidal forcing with saltwater intrusion."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bc import Boundaries, Discharge, Elevation, Wall
from .integrators import INTEGRATORS
from .layers import CONFORMAL_TOL, LayerLayout, build_layout, region_tables
from .mesh import build_mesh
from .spatial import Grid
from .state import PhysParams, WallFriction, Wind, rest_state

DAY_12H = 43200.0     # tidal period (s)
RAMP = 6.0 * 3600.0   # boundary ramp-in time (s)


@dataclass
class CaseSpec:
    """Complete, resolved description of one simulation run."""

    name: str
    x_min: float
    x_max: float
    M: int
    bathymetry: object                 # constant or callable b(x)
    layers: object                     # fraction table or region list
    eta0: float
    rho0: Callable[[np.ndarray, LayerLayout], np.ndarray]
    bounds: Boundaries
    params: PhysParams
    t_final: float
    integrator: str = "imex"           # "rk3" or "imex"
    dt: float | None = None            # fixed step, or None for adaptive
    target_ccel: float | None = None   # adaptive target on C_cel (dt None)
    limiter: bool = False
    output_interval: float = 1.0       # inf: the first and last state only

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if not (np.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError("t_final must be nonnegative and finite, "
                             f"got {self.t_final!r}")
        if not self.output_interval > 0:
            raise ValueError("output_interval must be positive (inf for the first "
                             f"and last state only), got {self.output_interval!r}")
        if self.dt is None and self.target_ccel is None and self.t_final > 0:
            raise ValueError("either dt or target_ccel must be set")
        if self.dt is not None and self.target_ccel is not None:
            raise ValueError("dt and target_ccel exclude each other: set dt=None "
                             "for an adaptive step")
        for name in ("dt", "target_ccel"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def with_options(self, **kw) -> "CaseSpec":
        return replace(self, **kw)


def build_problem(spec: CaseSpec):
    """Materialize (grid, initial state) from a CaseSpec."""
    mesh = build_mesh(spec.x_min, spec.x_max, spec.M, bathymetry=spec.bathymetry)
    layout = build_layout(mesh, spec.layers)
    grid = Grid(mesh=mesh, layout=layout, params=spec.params, bounds=spec.bounds)
    state = rest_state(mesh, layout, spec.eta0)
    state.rho = np.asarray(spec.rho0(mesh.x_center, layout), dtype=float)
    state.rho = np.where(layout.active_int(), state.rho, 0.0)
    state.validate(mesh, layout)
    return grid, state


# ---------------------------------------------------------------------------
# internal gravity wave


def internal_wave_fractions() -> np.ndarray:
    """54-layer stack refined over the density interface: two 0.125 layers
    at bottom and top, fifty 0.01 layers in between."""
    return np.concatenate([[0.125, 0.125], np.full(50, 0.01), [0.125, 0.125]])


def case_internal_wave(**overrides) -> CaseSpec:
    eta0 = 0.3
    frac = internal_wave_fractions()

    def rho0(x, layout):
        z_lim = 0.15 + 0.04 * np.exp(-100.0 * (x - 1.0) ** 2)
        z_top = eta0 * np.cumsum(layout.l_int, axis=0)
        return np.where(z_top < z_lim[None, :], 0.03, 0.0)

    spec = CaseSpec(
        name="internal_wave",
        x_min=0.0, x_max=2.0, M=200,
        bathymetry=0.0,
        layers=frac,
        eta0=eta0,
        rho0=rho0,
        bounds=Boundaries(Wall(), Wall()),
        params=PhysParams(),
        t_final=10.0,
        integrator="imex",
        dt=0.04,
        output_interval=0.4,
    )
    return spec.with_options(**overrides) if overrides else spec


# ---------------------------------------------------------------------------
# lock exchange


def case_lock_exchange(**overrides) -> CaseSpec:
    def rho0(x, layout):
        return np.where(x[None, :] > 0.0, 0.03, 0.0) * np.ones(
            (layout.n_max, x.size))

    spec = CaseSpec(
        name="lock_exchange",
        x_min=-10.0, x_max=10.0, M=200,
        bathymetry=0.0,
        layers=np.full(20, 0.05),
        eta0=0.3,
        rho0=rho0,
        bounds=Boundaries(Wall(), Wall()),
        params=PhysParams(),
        t_final=84.0,
        integrator="imex",
        dt=0.1,
        limiter=True,
        output_interval=0.5,
    )
    return spec.with_options(**overrides) if overrides else spec


def lock_exchange_theoretical_speed(g=9.81, h=0.3, rho=0.03) -> float:
    """Energy-balance estimate of the gravity-current front speed."""
    return float(np.sqrt(0.25 * g * h * rho))


# ---------------------------------------------------------------------------
# tidal forcing with variable density


def tidal_bathymetry(x):
    z0, z1 = 46.0, -46.0
    x0, x1 = 7500.0, 16000.0
    lam = -1.0 / 3000.0
    sigma = 2000.0
    return (z0 - z1 * np.tanh(lam * (x - x0))
            + 20.0 * np.exp(-((x - x1) ** 2) / sigma ** 2))


TIDAL_LAYOUTS = {
    "uniform": np.full(10, 0.1),
    "nvar1": [(0.0, np.array([1.0])), (np.inf, np.full(10, 0.1))],
    "nvar3": [(0.0, np.array([0.2, 0.2, 0.6])), (np.inf, np.full(10, 0.1))],
    "nvar4": [(0.0, np.array([0.2, 0.2, 0.2, 0.4])), (np.inf, np.full(10, 0.1))],
}


def tidal_exterior_density(fractions=None) -> np.ndarray:
    """The sea-side density profile on 10 equal layers or, given layer
    `fractions`, its thickness-weighted mean over each of those layers'
    span of the column."""
    rho_ext = np.full(10, 0.03)
    rho_ext[7:] = [0.028, 0.025, 0.015]
    if fractions is None:
        return rho_ext
    return _column_mean(rho_ext, np.full(10, 0.1), np.asarray(fractions, float))


def _column_mean(values, l_from, l_to) -> np.ndarray:
    """Thickness-weighted mean of the layer values `values` (on fractions
    l_from) over each layer of l_to in the same column: the lowest
    overlapping value plus the mean deviation from it, so that a layer
    inside one source layer takes its value exactly."""
    def spans(l):
        top = np.cumsum(l)
        return np.concatenate([[0.0], top[:-1]])[:, None], top[:, None]

    (lo_f, hi_f), (lo_t, hi_t) = spans(l_from), spans(l_to)
    overlap = np.minimum(hi_t, hi_f.T) - np.maximum(lo_t, lo_f.T)  # (to, from)
    overlap = np.where(overlap > CONFORMAL_TOL, overlap, 0.0)
    base = values[np.argmax(overlap > 0.0, axis=1)]
    return base + np.sum(overlap * (values - base[:, None]), axis=1) / l_to


def case_tidal(layout: str = "uniform", **overrides) -> CaseSpec:
    if layout not in TIDAL_LAYOUTS:
        raise ValueError(f"unknown tidal layout {layout!r}")
    layers = overrides.get("layers", TIDAL_LAYOUTS[layout])
    tables, _ = region_tables(layers)  # the left end's first, the right end's last
    rho_ext = tidal_exterior_density(tables[-1])
    omega = 2.0 * np.pi / DAY_12H

    def eta_bc(t):
        return 100.0 + 3.0 * np.sin(omega * t)

    def rho_bc_right(t):
        return np.minimum(rho_ext, rho_ext * (t / RAMP))

    def q_left(t):
        return min(1.0, t / RAMP)

    n_left = len(tables[0])

    def rho_bc_left(t):
        return np.zeros(n_left)

    def rho0(x, lay):
        return np.zeros((lay.n_max, x.size))

    spec = CaseSpec(
        name=f"tidal_{layout}",
        x_min=-7500.0, x_max=22500.0, M=500,
        bathymetry=tidal_bathymetry,
        layers=layers,
        eta0=100.0,
        rho0=rho0,
        bounds=Boundaries(
            Discharge(q=q_left, rho=rho_bc_left),
            Elevation(eta=eta_bc, rho=rho_bc_right),
        ),
        params=PhysParams(
            friction=WallFriction(kappa=0.41, dz0=3.3e-5),
            wind=Wind(c_w=1.2e-6, u_w=1.0),
            mixing_length=True,
        ),
        t_final=144.0 * 3600.0,
        integrator="imex",
        dt=20.0,
        output_interval=1800.0,
    )
    return spec.with_options(**overrides) if overrides else spec


CASES = {
    "internal_wave": case_internal_wave,
    "lock_exchange": case_lock_exchange,
    "tidal": case_tidal,
}
