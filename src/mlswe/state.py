"""Discrete state vector and physical parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

H_MIN_DEFAULT = 1e-6
U_MAX = 1e3  # a step's velocity beyond this (m/s) counts as blown up


class StepFailure(RuntimeError):
    """A state that cannot be stepped on: a non-finite value, a dry cell or a
    runaway velocity, at the flat index `flat` of the array `a` checked.
    `field`, `layer` (None for eta), `column` and `value` (the depth, for a
    dry cell) say where and what."""

    def __init__(self, reason: str, field: str, a: np.ndarray, flat: int):
        *layer, column = index = [int(i) for i in np.unravel_index(flat, a.shape)]
        self.reason, self.field, self.value = reason, field, float(a.flat[flat])
        self.layer, self.column = layer[0] if layer else None, column
        super().__init__(f"{reason} at {field}{index}: {self.value:.6g}")


def check_state(h, h_min: float, u=None, rho=None, u_max=None) -> None:
    """Raise StepFailure if the state of depth h = eta - b (and u and rho,
    where given) has a non-finite value, a depth at or below h_min, or, where
    u_max is given, a velocity beyond it; the tests run in that order and
    only a failed one locates its offender (the first non-finite value in
    (layer, column) order, the shallowest cell, the largest |u|)."""
    for name, a in (("eta", h), ("u", u), ("rho", rho)):
        if a is not None and not np.isfinite(a).all():
            raise StepFailure("non-finite value", name, a, np.argmin(np.isfinite(a)))
    if (h <= h_min).any():
        raise StepFailure(f"depth at or below h_min={h_min:g}", "eta", h, np.argmin(h))
    if u_max is not None and np.abs(u).max() > u_max:
        raise StepFailure(f"|u| beyond {u_max:g}", "u", u, np.argmax(np.abs(u)))


@dataclass
class State:
    """Free surface, layer velocities and relative density perturbations.

    eta[i] at cell centers, u[alpha, j] at interfaces (zero padded above the
    local layer count), rho[alpha, i] = rho'_alpha / rho_0 at cell centers.
    Plain value type: clone with .copy(), no shared mutable internals.
    """

    eta: np.ndarray   # (M,)
    u: np.ndarray     # (n_max, M+1)
    rho: np.ndarray   # (n_max, M)

    def copy(self) -> "State":
        return State(self.eta.copy(), self.u.copy(), self.rho.copy())

    def depth(self, mesh) -> np.ndarray:
        return self.eta - mesh.b

    def validate(self, mesh, layout) -> None:
        M = mesh.M
        n_max = layout.n_max
        if self.eta.shape != (M,) or self.rho.shape != (n_max, M):
            raise ValueError("state arrays inconsistent with mesh/layout")
        if self.u.shape != (n_max, M + 1):
            raise ValueError("velocity array inconsistent with mesh/layout")
        check_state(self.depth(mesh), H_MIN_DEFAULT, self.u, self.rho)


def rest_state(mesh, layout, eta0=0.0) -> State:
    eta = np.full(mesh.M, float(eta0)) if np.isscalar(eta0) else np.asarray(eta0, float).copy()
    return State(
        eta=eta,
        u=np.zeros((layout.n_max, mesh.M + 1)),
        rho=np.zeros((layout.n_max, mesh.M)),
    )


@dataclass(frozen=True)
class WallFriction:
    """Law-of-wall bottom friction: C_f = (kappa / ln(dz_r/dz_0))^2 with
    dz_r = l_1 * h."""

    kappa: float = 0.41
    dz0: float = 3.3e-5


@dataclass(frozen=True)
class Wind:
    c_w: float = 0.0
    u_w: float = 0.0


@dataclass(frozen=True)
class PhysParams:
    g: float = 9.81
    nu: float = 0.0                     # constant kinematic viscosity
    mixing_length: bool = False         # parabolic eddy-viscosity profile
    friction: WallFriction | None = None
    wind: Wind = field(default_factory=Wind)

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError("g must be positive")
        if self.nu < 0 or self.wind.c_w < 0:
            raise ValueError("closure parameters must be nonnegative")


def total_volume(state: State, mesh) -> float:
    """Water volume per unit width: sum_i h_i dx_i."""
    return float(np.sum((state.eta - mesh.b) * mesh.dx))


def total_density_mass(state: State, mesh, layout) -> float:
    """Density-perturbation content: sum_i sum_a rho l_int h dx."""
    h = state.eta - mesh.b
    act = layout.active_int()
    return float(np.sum(np.where(act, state.rho * layout.l_int, 0.0) * (h * mesh.dx)))
