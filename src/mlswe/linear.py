"""Linearized system analysis around a constant background state.

For a flat bottom, constant depth H, per-layer background velocities U and
relative densities rho, the linearized equations form a first-order system
q_t + A q_x = 0 in q = (h, u_1..u_N, rho_1..rho_N). This module assembles A,
computes its spectrum and checks hyperbolicity (all eigenvalues real).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearModel:
    """Constant background profile for the linearization."""

    H: float
    U: np.ndarray     # (N,)
    rho: np.ndarray   # (N,) background relative densities
    l: np.ndarray     # (N,) layer fractions, sum to 1
    g: float = 9.81

    def __post_init__(self):
        object.__setattr__(self, "U", np.atleast_1d(np.asarray(self.U, float)))
        object.__setattr__(self, "rho", np.atleast_1d(np.asarray(self.rho, float)))
        object.__setattr__(self, "l", np.atleast_1d(np.asarray(self.l, float)))
        for name in ("H", "g"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("U", "rho"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name).tolist()}")
        if not (self.U.shape == self.rho.shape == self.l.shape):
            raise ValueError("U, rho, l must have the same length")
        if np.any(self.l <= 0.0):
            raise ValueError(f"layer fractions must be positive, got {self.l.tolist()}")
        if abs(float(np.sum(self.l)) - 1.0) > 1e-12:
            raise ValueError("layer fractions must sum to 1")

    @property
    def N(self) -> int:
        return self.l.size


@dataclass
class AssembledA:
    """The (2N+1) x (2N+1) system matrix and its building blocks."""

    A: np.ndarray
    model: LinearModel
    Ubar: float
    M: np.ndarray       # (N, N) transfer weights
    W: np.ndarray       # (N, N) velocity-shear coupling
    W_rho: np.ndarray   # (N, N) density-stratification coupling
    v: np.ndarray       # (N,)
    v_rho: np.ndarray   # (N,)
    r: np.ndarray       # (N,)
    s: np.ndarray       # (N,)
    TL: np.ndarray      # (N, N) upper triangular, diagonal l/2


def assemble_A(model: LinearModel) -> AssembledA:
    N, H, g = model.N, model.H, model.g
    U, rho, l = model.U, model.rho, model.l

    Ubar = float(np.sum(l * U))
    dU = U - Ubar
    dUbar = np.cumsum(l * dU)                       # delta-U averaged up to layer a

    # M[a, c] = l_c (1 - cum_a) for c <= a, else -l_c cum_a
    cum = np.cumsum(l)
    aa, cc = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    Mmat = np.where(cc <= aa, l[cc] * (1.0 - cum[aa]), -l[cc] * cum[aa])

    # delta_{a,a+1/2} X = (X_{a+1} - X_a) / (2 H l_a); index by the layer a;
    # the bottom and surface interfaces carry no transfer, hence the zeros
    d_up_U = np.zeros(N)     # interface a+1/2 seen from layer a
    d_dn_U = np.zeros(N)     # interface a-1/2 seen from layer a
    d_up_R = np.zeros(N)
    d_dn_R = np.zeros(N)
    if N > 1:
        d_up_U[:-1] = (U[1:] - U[:-1]) / (2.0 * H * l[:-1])
        d_dn_U[1:] = (U[1:] - U[:-1]) / (2.0 * H * l[1:])
        d_up_R[:-1] = (rho[1:] - rho[:-1]) / (2.0 * H * l[:-1])
        d_dn_R[1:] = (rho[1:] - rho[:-1]) / (2.0 * H * l[1:])

    dUbar_prev = np.concatenate([[0.0], dUbar[:-1]])
    M_prev = np.vstack([np.zeros((1, N)), Mmat[:-1, :]])

    v = -(d_up_U * dUbar + d_dn_U * dUbar_prev)
    W = -(d_up_U[:, None] * Mmat + d_dn_U[:, None] * M_prev)
    v_rho = -(d_up_R * dUbar + d_dn_R * dUbar_prev)
    W_rho = -(d_up_R[:, None] * Mmat + d_dn_R[:, None] * M_prev)

    # r_a = rho_a + sum_{b>a} l_b (rho_b - rho_a)
    tail = np.concatenate([np.cumsum((l * rho)[::-1])[::-1][1:], [0.0]])
    ltail = np.concatenate([np.cumsum(l[::-1])[::-1][1:], [0.0]])
    r = rho + tail - ltail * rho
    s = 1.0 + r + v

    TL = np.triu(np.tile(l, (N, 1)), 1) + np.diag(l / 2.0)

    A = np.zeros((2 * N + 1, 2 * N + 1))
    A[0, 0] = Ubar
    A[0, 1:N + 1] = H * l
    A[1:N + 1, 0] = g * s
    A[1:N + 1, 1:N + 1] = np.diag(U) + H * W
    A[1:N + 1, N + 1:] = g * H * TL
    A[N + 1:, 0] = v_rho
    A[N + 1:, 1:N + 1] = H * W_rho
    A[N + 1:, N + 1:] = np.diag(U)

    return AssembledA(A=A, model=model, Ubar=Ubar, M=Mmat, W=W, W_rho=W_rho,
                      v=v, v_rho=v_rho, r=r, s=s, TL=TL)


def spectrum(assembled: AssembledA) -> np.ndarray:
    """Eigenvalues of A, sorted by real part then imaginary part."""
    lam = np.linalg.eigvals(assembled.A)
    order = np.lexsort((lam.imag, lam.real))
    return lam[order]


def hyperbolicity_check(assembled: AssembledA, tol: float | None = None):
    """(is_hyperbolic, max_imag): all eigenvalues real within tol.

    Default tolerance scales with the spectral radius."""
    lam = spectrum(assembled)
    radius = float(np.max(np.abs(lam))) if lam.size else 0.0
    if tol is None:
        tol = 1e-10 * max(radius, 1.0)
    max_imag = float(np.max(np.abs(lam.imag))) if lam.size else 0.0
    return max_imag <= tol, max_imag


def characteristic_residual(assembled: AssembledA,
                            lam: np.ndarray | None = None) -> float:
    """Cross-check of the reduced characteristic relation (zero background
    density): for each eigenvalue z of U + H W, the quadratic
    (z - lambda)(Ubar - lambda) - g H = 0 is tested against the computed
    eigenvalues lambda of A. Returns the largest of the per-z minima. The
    relation is exact only when U + H W is a multiple of the identity (no
    shear); for l = (1/2, 1/2), dU = 0.2 the residual is 0.33."""
    m = assembled.model
    g, H = m.g, m.H
    if lam is None:
        lam = spectrum(assembled)
    z = np.linalg.eigvals(np.diag(m.U) + H * assembled.W)
    vals = np.abs((z[:, None] - lam[None, :])
                  * (assembled.Ubar - lam[None, :]) - g * H)
    return float(np.max(np.min(vals, axis=1)))
