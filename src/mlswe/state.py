"""Discrete state vector and physical parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

H_MIN_DEFAULT = 1e-6


class DryStateError(RuntimeError):
    """Raised when the water column becomes thinner than h_min."""


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
        h = self.depth(mesh)
        if not np.all(np.isfinite(h)):
            raise DryStateError("non-finite free surface")
        if np.any(h <= H_MIN_DEFAULT):
            i = int(np.argmin(h))
            raise DryStateError(f"layer depth {h[i]:.3e} <= h_min at cell {i}")

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.eta).all() and np.isfinite(self.u).all()
                    and np.isfinite(self.rho).all())


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
