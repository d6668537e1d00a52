"""Time integrators: explicit SSP-RK3 and the semi-implicit IMEX-ARK2 step.

The IMEX step is an ARK2 pair (Giraldo, Kelly & Constantinescu, SIAM J. Sci.
Comput. 35, 2013) that treats the barotropic pressure gradient, the mass
flux and the vertical viscous exchange implicitly, everything else
(advection, transfer terms, baroclinic pressure) explicitly. The implicit
operator is frozen at time level n and both implicit stages share the
pair's one diagonal, so the whole stage matrix is built once per step: the
vertical tridiagonal of every water column and the free-surface tridiagonal
along the domain. Each stage is then one column solve, which eliminates the
velocities, and one solve along the domain for the free surface; a periodic
domain adds one Sherman-Morrison correction solve per step. A step
evaluates only what the tableau consumes: the non-stiff momentum tendency
at all three stages, the stiff tendencies at level n alone (stage 2's comes
out of its implicit solve, and stage 3's is never needed because the weights
equal the last implicit row), and the mass transfer at the frozen height.

Density stages use a linearized update so that no extra linear system is
needed: each stage upwinds the previous stage's density with the tableau-
weighted carrier velocity and carries it on the same weighted sum of the
per-layer mass fluxes that the continuity update of the stage uses (all
built at the height frozen at time level n, a prescribed discharge at its
stage time). So a spatially constant density stays constant, open ends
included, while the flow carries no vertical shear; under shear the vertical
exchange is still carried with other weights than the flux.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .spatial import (Grid, ViscousCoeffs, boundary_velocities,
                      compute_tendencies, density_rhs_flux, free_surface_rhs,
                      ghost_elevation, layer_flux, mass_transfer,
                      momentum_nonstiff, momentum_stiff, prepare_fields,
                      vertical_density_term, viscous_coefficients)
from .state import State

SQRT2 = np.sqrt(2.0)


class StepFailure(RuntimeError):
    """A time step produced a non-finite or dry state."""


@dataclass(frozen=True)
class ButcherPair:
    """Additive Runge-Kutta tableau pair with shared abscissae and weights."""

    c: np.ndarray     # (3,)
    a_ex: np.ndarray  # (3, 3) strictly lower triangular
    a_im: np.ndarray  # (3, 3) lower triangular, nonzero diagonal from stage 2
    b: np.ndarray     # (3,)


def ark2_tableau() -> ButcherPair:
    """Second-order ARK2 pair whose implicit part matches TR-BDF2
    (L-stable member, abscissa 2 - sqrt(2))."""
    gamma = 1.0 - 1.0 / SQRT2
    delta = 1.0 / (2.0 * SQRT2)
    c = np.array([0.0, 2.0 - SQRT2, 1.0])
    a_ex = np.array([
        [0.0, 0.0, 0.0],
        [2.0 - SQRT2, 0.0, 0.0],
        [1.0 - (3.0 + 2.0 * SQRT2) / 6.0, (3.0 + 2.0 * SQRT2) / 6.0, 0.0],
    ])
    a_im = np.array([
        [0.0, 0.0, 0.0],
        [gamma, gamma, 0.0],
        [delta, delta, gamma],
    ])
    b = np.array([delta, delta, gamma])
    for coefficients in (c, a_ex, a_im, b):
        coefficients.setflags(write=False)
    return ButcherPair(c=c, a_ex=a_ex, a_im=a_im, b=b)


# the IMEX step's constants: one frozen stage matrix serves both implicit
# stages because a_im[1, 1] == a_im[2, 2], and the step ends at stage 3
# because b == a_im[2]
ARK2 = ark2_tableau()


# ---------------------------------------------------------------------------
# Courant numbers and step control


def courant_numbers(state: State, grid: Grid, dt: float):
    """(C_cel, C_vel): cell maxima of (|ubar| + sqrt((1+rhobar) g h)) dt/dx
    and (|ubar| + sqrt(rhobar g h)) dt/dx; negative rhobar is clamped to
    zero under the square root."""
    layout, mesh, g = grid.layout, grid.mesh, grid.params.g
    h = np.maximum(state.eta - mesh.b, 0.0)
    u_c = 0.5 * (state.u[:, :-1] + state.u[:, 1:])
    ubar = np.abs(np.sum(layout.l_int * u_c, axis=0))
    rhobar = np.sum(np.where(layout.active_int(), layout.l_int * state.rho, 0.0), axis=0)
    c_cel = np.max((ubar + np.sqrt(np.maximum(1.0 + rhobar, 0.0) * g * h)) * dt / mesh.dx)
    c_vel = np.max((ubar + np.sqrt(np.maximum(rhobar, 0.0) * g * h)) * dt / mesh.dx)
    return float(c_cel), float(c_vel)


def adaptive_dt(state: State, grid: Grid, target: float, *,
                kind: str = "cel", dt_max: float = np.inf) -> float:
    """Largest dt whose Courant number (of the requested kind) equals the
    target on the current state, capped at dt_max."""
    c_cel, c_vel = courant_numbers(state, grid, 1.0)
    c = c_cel if kind == "cel" else c_vel
    if c <= 0.0:
        return float(dt_max)
    return float(min(target / c, dt_max))


def _check_state(state: State, grid: Grid) -> State:
    if not state.all_finite():
        raise StepFailure("non-finite field value")
    if np.any(state.eta - grid.mesh.b <= grid.h_min):
        raise StepFailure("water depth below h_min")
    return state


# ---------------------------------------------------------------------------
# explicit SSP-RK3 on (eta, u, rho*l*h)


class RK3Integrator:
    """Three-stage SSP Runge-Kutta on the full right-hand side.

    The density is advanced in the conservative variable r = rho*l*h, which
    keeps a spatially constant density exactly constant and conserves the
    density content in closed domains.
    """

    def __init__(self, grid: Grid, limiter: bool = False):
        self.grid = grid
        self.limiter = limiter
        self.n_rhs = 0

    def _rhs(self, state: State, t: float):
        self.n_rhs += 1
        tend = compute_tendencies(state, self.grid, t, limiter=self.limiter)
        return tend.d_eta, tend.d_u_stiff + tend.d_u_nonstiff, tend.d_r

    def _euler(self, state: State, t: float, dt: float):
        d_eta, d_u, d_r = self._rhs(state, t)
        layout, mesh = self.grid.layout, self.grid.mesh
        r = layout.l_int * (state.eta - mesh.b) * state.rho
        eta = state.eta + dt * d_eta
        u = state.u + dt * d_u
        r = r + dt * d_r
        rho = np.where(layout.active_int(),
                       r / (layout.l_int_safe * (eta - mesh.b)), 0.0)
        return State(eta, u, rho), r

    def step(self, state: State, t: float, dt: float) -> State:
        grid = self.grid
        layout, mesh = grid.layout, grid.mesh
        l_safe = layout.l_int_safe
        r0 = layout.l_int * (state.eta - mesh.b) * state.rho

        s1, r1 = self._euler(state, t, dt)
        _check_state(s1, grid)
        s2e, r2e = self._euler(s1, t + dt, dt)
        eta2 = 0.75 * state.eta + 0.25 * s2e.eta
        u2 = 0.75 * state.u + 0.25 * s2e.u
        r2 = 0.75 * r0 + 0.25 * r2e
        rho2 = np.where(layout.active_int(), r2 / (l_safe * (eta2 - mesh.b)), 0.0)
        s2 = _check_state(State(eta2, u2, rho2), grid)

        s3e, r3e = self._euler(s2, t + 0.5 * dt, dt)
        eta3 = state.eta / 3.0 + (2.0 / 3.0) * s3e.eta
        u3 = state.u / 3.0 + (2.0 / 3.0) * s3e.u
        r3 = r0 / 3.0 + (2.0 / 3.0) * r3e
        rho3 = np.where(layout.active_int(), r3 / (l_safe * (eta3 - mesh.b)), 0.0)
        if grid.bounds.periodic:
            u3[:, -1] = u3[:, 0]
        return _check_state(State(eta3, u3, rho3), grid)


def rk3_step(state: State, grid: Grid, t: float, dt: float,
             limiter: bool = False) -> State:
    return RK3Integrator(grid, limiter).step(state, t, dt)


# ---------------------------------------------------------------------------
# implicit stage machinery


def _thomas(sub, diag, sup, rhs):
    """Vectorized tridiagonal solve along axis 0 (no pivoting; the systems
    are strictly diagonally dominant by construction)."""
    n = diag.shape[0]
    c = np.empty_like(diag)
    d = np.empty_like(rhs)
    c[0] = sup[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for k in range(1, n):
        m = diag[k] - sub[k] * c[k - 1]
        c[k] = sup[k] / m
        d[k] = (rhs[k] - sub[k] * d[k - 1]) / m
    x = np.empty_like(rhs)
    x[-1] = d[-1]
    for k in range(n - 2, -1, -1):
        x[k] = d[k] - c[k] * x[k + 1]
    return x


@dataclass(frozen=True)
class ImplicitWorkspace:
    """The frozen level-n stage matrix shared by the implicit stages of one
    step: the vertical tridiagonal of every column and the free-surface
    tridiagonal along the domain."""

    h_half: np.ndarray          # (M+1,)
    coeffs: ViscousCoeffs
    gamma_dt: float             # dt * a_im diagonal
    sub: np.ndarray             # vertical tridiagonal of (I - gamma_dt * A)
    diag: np.ndarray
    sup: np.ndarray
    k_const: np.ndarray         # (n_max, M+1) constant forcing (wind)
    w_hat: np.ndarray           # (n_max, M+1) velocity response to grad eta
    W: np.ndarray               # (M+1,) its column flux h * sum(l * w_hat),
                                # 0 at discharge ends, W[M] = W[0] if periodic
    fac: np.ndarray             # (M,) gamma_dt / dx
    ab: np.ndarray              # (3, M) banded free-surface matrix, with the
                                # Sherman-Morrison corner modification if periodic
    z: np.ndarray | None        # periodic: the modified matrix's response to
                                # the corner column gamma e_0 + beta e_{M-1}
    r: float                    # periodic: the corner row v = e_0 + r e_{M-1}
    v_z: float                  # periodic: v . z


def build_implicit_workspace(grid: Grid, h_half, coeffs: ViscousCoeffs,
                             gamma_dt: float) -> ImplicitWorkspace:
    layout, mesh = grid.layout, grid.mesh
    n_max, Mp1, M = layout.n_max, h_half.size, mesh.M
    act = layout.active_half()
    inv_lh = 1.0 / (layout.l_half_safe * h_half)

    a = coeffs.a  # (n_max+1, Mp1)
    upper_c = a[1:, :].copy()   # coefficient coupling layer k to k+1
    lower_c = a[:-1, :].copy()  # coefficient coupling layer k to k-1
    # bottom drag / wind stress replace the outer exchange coefficients
    lower_c[0, :] = coeffs.c_bot
    cols = np.arange(Mp1)
    top = np.maximum(layout.n_half - 1, 0)
    upper_c[top, cols] = coeffs.c_wind
    upper_c = np.where(act, upper_c, 0.0)
    lower_c = np.where(act, lower_c, 0.0)

    diag_a = -(upper_c + lower_c) * inv_lh
    sup_a = np.zeros((n_max, Mp1))
    sub_a = np.zeros((n_max, Mp1))
    sup_a[:-1, :] = a[1:n_max, :] * inv_lh[:-1, :]
    sub_a[1:, :] = a[1:n_max, :] * inv_lh[1:, :]
    sup_a = np.where(act, sup_a, 0.0)
    sub_a = np.where(act, sub_a, 0.0)

    k_const = np.zeros((n_max, Mp1))
    k_const[top, cols] = coeffs.c_wind * coeffs.u_wind * inv_lh[top, cols]
    k_const = np.where(act, k_const, 0.0)

    sub = -gamma_dt * sub_a
    diag = np.where(act, 1.0 - gamma_dt * diag_a, 1.0)
    sup = -gamma_dt * sup_a
    # the same matrix and right-hand side in every stage of the step; with
    # trivial coefficients the matrix is exactly the identity
    ones = np.where(act, gamma_dt * grid.params.g / mesh.dx_half, 0.0)
    w_hat = ones if coeffs.trivial else _thomas(sub, diag, sup, ones)

    # free surface: column flux K + W * (jump of eta) at each interface; an
    # end of prescribed discharge fixes it to its flux, free of eta
    W = h_half * np.sum(layout.l_half * w_hat, axis=0)
    for end in grid.discharge_ends:
        W[end.iface] = 0.0
    periodic = grid.bounds.periodic
    if periodic:
        W[M] = W[0]  # interface M aliases interface 0
    fac = gamma_dt / mesh.dx
    lower = -fac * W[:M]
    upper = -fac * W[1:]
    ab = np.zeros((3, M))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = 1.0 + fac * (W[:M] + W[1:])
    ab[2, :-1] = lower[1:]
    z, r, v_z = None, 0.0, 0.0
    if periodic:
        # the cyclic corners lower[0] at (0, M-1) and upper[-1] at (M-1, 0)
        # as the rank-one update (gamma e_0 + beta e_{M-1}) v^T
        alpha, beta, gamma = lower[0], upper[-1], -ab[1, 0]
        ab[1, 0] -= gamma
        ab[1, -1] -= alpha * beta / gamma
        corner = np.zeros(M)
        corner[0], corner[-1] = gamma, beta
        z = sla.solve_banded((1, 1), ab, corner)
        r = alpha / gamma
        v_z = z[0] + r * z[-1]
    return ImplicitWorkspace(
        h_half=h_half, coeffs=coeffs, gamma_dt=gamma_dt,
        sub=sub, diag=diag, sup=sup, k_const=k_const, w_hat=w_hat,
        W=W, fac=fac, ab=ab, z=z, r=r, v_z=v_z)


def implicit_stage_solve(grid: Grid, ws: ImplicitWorkspace,
                         eta_expl, u_expl, t_stage: float):
    """Solve the coupled stage equations

        u = u_expl + gamma_dt (A u + k - g grad eta)
        eta = eta_expl - gamma_dt div(l h^n u)

    with the workspace's frozen matrix. Returns (eta_stage, u_stage).
    Velocities at non-evolved boundary columns are returned as zero;
    prescribed values are reapplied on evaluation.
    """
    layout, M = grid.layout, grid.mesh.M
    fac, W = ws.fac, ws.W
    periodic = grid.bounds.periodic

    rhs_u = np.where(layout.active_half(), u_expl + ws.gamma_dt * ws.k_const, 0.0)
    u_hat = rhs_u if ws.coeffs.trivial else _thomas(ws.sub, ws.diag, ws.sup, rhs_u)

    # the stage's column flux, prescribed at the discharge ends
    K = np.sum(layer_flux(u_hat, ws.h_half, grid, t_stage), axis=0)
    if periodic:
        K[M] = K[0]
    rhs = eta_expl - fac * (K[1:] - K[:M])
    if not periodic:
        # Dirichlet ghosts move to the RHS; only elevation ends have W != 0
        eta_g = ghost_elevation(eta_expl, grid, t_stage)
        rhs[0] += fac[0] * W[0] * eta_g[0]
        rhs[-1] += fac[-1] * W[M] * eta_g[-1]
    eta = sla.solve_banded((1, 1), ws.ab, rhs)
    if periodic:
        eta = eta - ws.z * ((eta[0] + ws.r * eta[-1]) / (1.0 + ws.v_z))

    # back-substitute the velocities
    u = u_hat - np.diff(ghost_elevation(eta, grid, t_stage))[None, :] * ws.w_hat
    u = np.where(grid.evolved_u, u, 0.0)
    if periodic:
        u[:, M] = u[:, 0]
    return eta, u


def implicit_residual(grid: Grid, ws: ImplicitWorkspace, eta_expl, u_expl,
                      eta, u, t_stage: float) -> float:
    """Max-norm residual of the unreduced stage equations (diagnostic)."""
    mesh, g = grid.mesh, grid.params.g
    M = mesh.M
    gd = ws.gamma_dt
    act = grid.evolved_u

    grad = g * np.diff(ghost_elevation(eta, grid, t_stage)) / mesh.dx_half

    # A u + k via the stored tridiagonal of (I - gd A)
    up = np.vstack([u[1:, :], np.zeros((1, u.shape[1]))])
    um = np.vstack([np.zeros((1, u.shape[1])), u[:-1, :]])
    Tu = ws.diag * u + ws.sup * up + ws.sub * um      # (I - gd A) u
    res_u = Tu - gd * ws.k_const - (u_expl - gd * grad[None, :])
    res_u = np.where(act, res_u, 0.0)

    F = np.sum(layer_flux(u, ws.h_half, grid, t_stage), axis=0)
    res_eta = eta - eta_expl + gd * (F[1:] - F[:M]) / mesh.dx
    return float(max(np.max(np.abs(res_u)), np.max(np.abs(res_eta))))


# ---------------------------------------------------------------------------
# IMEX-ARK2 step


class IMEXIntegrator:
    """Semi-implicit additive Runge-Kutta step (three stages)."""

    def __init__(self, grid: Grid, limiter: bool = False):
        self.grid = grid
        self.limiter = limiter
        self.n_rhs = 0
        self.n_implicit = 0

    def _nonstiff_stage(self, state: State, t: float):
        """What stages 2 and 3 consume: the non-stiff momentum tendency and
        the stage fields."""
        grid = self.grid
        self.n_rhs += 1
        fs = prepare_fields(state, grid, t)
        G = mass_transfer(fs.u, fs.flux, fs.h_half, grid)
        return momentum_nonstiff(fs, G, grid, self.limiter), fs

    def step(self, state: State, t: float, dt: float) -> State:
        grid = self.grid
        layout, mesh = grid.layout, grid.mesh
        a, ai, b, c = ARK2.a_ex, ARK2.a_im, ARK2.b, ARK2.c
        gamma = ai[1, 1]

        l_safe = layout.l_int_safe
        act_i = layout.active_int()
        h_n = state.eta - mesh.b
        lh_n = layout.l_int * h_n

        # ---- stage 1 = level n ----------------------------------------
        # the only stage whose stiff tendencies are evaluated; its interface
        # height and viscous coefficients freeze the implicit operator
        self.n_rhs += 1
        fs_n = prepare_fields(state, grid, t)
        h_half_n = fs_n.h_half
        u1f, F1 = fs_n.u, fs_n.flux
        G1 = mass_transfer(u1f, F1, h_half_n, grid)
        coeffs = viscous_coefficients(grid, h_half_n, u1f)
        ws = build_implicit_workspace(grid, h_half_n, coeffs, dt * gamma)
        N1 = momentum_nonstiff(fs_n, G1, grid, self.limiter)
        S1_u = momentum_stiff(fs_n, coeffs, grid)
        S1_eta = free_surface_rhs(fs_n, grid)
        rho1 = state.rho

        # ---- stage 2 ----------------------------------------------------
        # the stiff tendency S2 comes out of the implicit solve; the stage's
        # mass flux at the frozen height serves its density, continuity and
        # mass transfer alike
        t2 = t + c[1] * dt
        eta_e2 = state.eta + dt * ai[1, 0] * S1_eta
        u_e2 = state.u + dt * (a[1, 0] * N1 + ai[1, 0] * S1_u)
        eta2, u2 = implicit_stage_solve(grid, ws, eta_e2, u_e2, t2)
        self.n_implicit += 1
        S2_u = (u2 - u_e2) / (dt * gamma)
        S2_eta = (eta2 - eta_e2) / (dt * gamma)
        h2 = eta2 - mesh.b
        if np.any(h2 <= grid.h_min) or not np.all(np.isfinite(eta2)):
            raise StepFailure("implicit stage produced a dry or non-finite state")

        u2f = boundary_velocities(State(eta2, u2, rho1), grid, t2)
        F2 = layer_flux(u2f, h_half_n, grid, t2)
        flux_s2 = density_rhs_flux(fs_n, ai[1, 1] * u2f + ai[1, 0] * u1f,
                                   ai[1, 1] * F2 + ai[1, 0] * F1, h_half_n, grid)
        vert1 = vertical_density_term(rho1, G1, grid)
        num2 = lh_n * rho1 + dt * (flux_s2 + a[1, 0] * vert1)
        rho2 = np.where(act_i, num2 / (l_safe * h2), 0.0)

        N2, fs2 = self._nonstiff_stage(State(eta2, u2, rho2), t2)
        G2 = mass_transfer(u2f, F2, h_half_n, grid)

        # ---- stage 3 ----------------------------------------------------
        # its stiff tendency is never needed: b equals the last implicit row
        t3 = t + c[2] * dt
        eta_e3 = state.eta + dt * (ai[2, 0] * S1_eta + ai[2, 1] * S2_eta)
        u_e3 = state.u + dt * (a[2, 0] * N1 + a[2, 1] * N2
                               + ai[2, 0] * S1_u + ai[2, 1] * S2_u)
        eta3, u3 = implicit_stage_solve(grid, ws, eta_e3, u_e3, t3)
        self.n_implicit += 1
        h3 = eta3 - mesh.b
        if np.any(h3 <= grid.h_min) or not np.all(np.isfinite(eta3)):
            raise StepFailure("implicit stage produced a dry or non-finite state")

        u3f = boundary_velocities(State(eta3, u3, rho2), grid, t3)
        F3 = layer_flux(u3f, h_half_n, grid, t3)
        flux_s3 = density_rhs_flux(fs2, ai[2, 2] * u3f + ai[2, 1] * u2f,
                                   ai[2, 2] * F3 + ai[2, 1] * F2, h_half_n, grid)
        vert2 = vertical_density_term(rho2, G2, grid)
        flux1 = density_rhs_flux(fs_n, u1f, F1, h_half_n, grid)
        num3 = lh_n * rho1 + dt * (flux_s3 + a[2, 1] * vert2
                                   + ai[2, 0] * flux1 + a[2, 0] * vert1)
        rho3 = np.where(act_i, num3 / (l_safe * h3), 0.0)

        N3, fs3 = self._nonstiff_stage(State(eta3, u3, rho3), t3)
        G3 = mass_transfer(u3f, F3, h_half_n, grid)

        # ---- assembly ---------------------------------------------------
        # b equals the last implicit row, so eta^{n+1} = eta3 and the
        # implicit contributions to u telescope through stage 3.
        eta_new = eta3
        u_new = u3 + dt * ((b[0] - a[2, 0]) * N1 + (b[1] - a[2, 1]) * N2
                           + b[2] * N3)
        u_new = np.where(grid.evolved_u, u_new, 0.0)
        if grid.bounds.periodic:
            u_new[:, -1] = u_new[:, 0]

        flux2 = density_rhs_flux(fs2, u2f, F2, h_half_n, grid)
        flux3 = density_rhs_flux(fs3, u3f, F3, h_half_n, grid)
        vert3 = vertical_density_term(rho3, G3, grid)
        num = lh_n * rho1 + dt * (
            b[0] * (flux1 + vert1) + b[1] * (flux2 + vert2)
            + b[2] * (flux3 + vert3))
        h_new = eta_new - mesh.b
        rho_new = np.where(act_i, num / (l_safe * h_new), 0.0)
        return _check_state(State(eta_new, u_new, rho_new), grid)


def imex_ark2_step(state: State, grid: Grid, t: float, dt: float,
                   limiter: bool = False) -> State:
    return IMEXIntegrator(grid, limiter).step(state, t, dt)
