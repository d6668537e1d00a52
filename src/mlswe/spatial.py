"""Discrete spatial operators on the staggered mesh.

Scalars (eta, rho) live at cell centers, velocities at interfaces. Interface
values of h and rho are upwind selections; the mass-transfer field couples
the layers vertically. The right-hand side comes in pieces that steppers
call separately: the stiff momentum term (barotropic pressure gradient,
vertical viscosity), the non-stiff one (momentum advection, transfer terms,
baroclinic pressure terms), the mass-flux divergence and the density term.
`compute_tendencies` composes all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .bc import Boundaries, Discharge, Elevation, Wall, closed
from .layers import LayerLayout
from .mesh import Mesh1D
from .state import H_MIN_DEFAULT, DryStateError, PhysParams, State


@dataclass(frozen=True)
class Grid:
    """Static problem description shared by all operators."""

    mesh: Mesh1D
    layout: LayerLayout
    params: PhysParams
    bounds: Boundaries = field(default_factory=closed)
    h_min: float = H_MIN_DEFAULT

    @cached_property
    def evolved_u(self) -> np.ndarray:
        """Read-only (n_max, M+1) mask of the prognostic velocities: live
        layers at every interface except the periodic alias and wall or
        discharge boundaries, whose velocities are prescribed."""
        evolved = np.ones(self.mesh.M + 1, dtype=bool)
        if self.bounds.periodic:
            evolved[-1] = False  # alias of column 0
        else:
            evolved[0] = isinstance(self.bounds.left, Elevation)
            evolved[-1] = isinstance(self.bounds.right, Elevation)
        mask = evolved[None, :] & self.layout.active_half()
        mask.setflags(write=False)
        return mask


def upwind_interface(left, right, carrier):
    """Upwind selection: carrier > 0 picks left, < 0 picks right, exact zero
    gives the arithmetic average (preserves rest states and symmetry)."""
    s = np.sign(carrier)
    return 0.5 * (left + right) - 0.5 * s * (right - left)


def minmod(a, b):
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


# ---------------------------------------------------------------------------
# boundary handling


def boundary_values(state: State, grid: Grid, t: float):
    """Fill boundary velocity columns and build ghost-cell arrays.

    Returns (u_full, eta_g, rho_g, b_g) where ghost arrays have length M+2
    (index 0 = left ghost, M+1 = right ghost).
    """
    mesh, layout, bounds = grid.mesh, grid.layout, grid.bounds
    M = mesh.M
    n_max = layout.n_max

    u_full = state.u.copy()
    eta_g = np.empty(M + 2)
    rho_g = np.zeros((n_max, M + 2))
    b_g = np.empty(M + 2)
    eta_g[1:-1] = state.eta
    rho_g[:, 1:-1] = state.rho
    b_g[1:-1] = mesh.b

    if bounds.periodic:
        u_full[:, M] = u_full[:, 0]
        eta_g[0], eta_g[-1] = state.eta[-1], state.eta[0]
        rho_g[:, 0], rho_g[:, -1] = state.rho[:, -1], state.rho[:, 0]
        b_g[0], b_g[-1] = mesh.b[-1], mesh.b[0]
        return u_full, eta_g, rho_g, b_g

    for side, j, ig, ic in (("left", 0, 0, 0), ("right", M, M + 1, M - 1)):
        cond = bounds.left if side == "left" else bounds.right
        nb = layout.n_half[j]
        if isinstance(cond, Wall):
            u_full[:, j] = 0.0
            eta_g[ig] = state.eta[ic]
            b_g[ig] = mesh.b[ic]
            rho_g[:, ig] = state.rho[:, ic]
        elif isinstance(cond, Discharge):
            h_in = state.eta[ic] - mesh.b[ic]
            u_full[:nb, j] = cond.q(t) / h_in
            u_full[nb:, j] = 0.0
            eta_g[ig] = state.eta[ic]
            b_g[ig] = mesh.b[ic]
            rho_g[:nb, ig] = cond.rho(t)
        elif isinstance(cond, Elevation):
            eta_g[ig] = cond.eta(t)
            b_g[ig] = mesh.b[ic]
            rho_g[:nb, ig] = cond.rho(t)
        else:
            raise TypeError(f"unsupported boundary condition {cond!r}")
    return u_full, eta_g, rho_g, b_g


# ---------------------------------------------------------------------------
# interface scalars


def _restrict_column(values, l_fine, parent, l_coarse, n_coarse):
    """Thickness-weighted restriction of a fine cell column onto the coarser
    interface layering."""
    out = np.zeros(n_coarse)
    np.add.at(out, parent, l_fine * values)
    return out / l_coarse[:n_coarse]


def interface_cell_scalars(rho_g, grid: Grid):
    """Cell densities seen from each interface, in that interface's layering.

    Returns (rho_L, rho_R), each (n_max, M+1). Away from layer-count
    transitions these are plain neighbour copies.
    """
    layout = grid.layout
    M = grid.mesh.M
    rho_L = rho_g[:, :-1].copy()
    rho_R = rho_g[:, 1:].copy()
    if layout.uniform:
        return rho_L, rho_R
    n_half, n_int = layout.n_half, layout.n_int
    for i in np.nonzero(layout.transition_cell)[0]:
        if n_int[i] > n_half[i]:  # left interface coarser: cell i feeds rho_R[:, i]
            ni, nc = n_int[i], n_half[i]
            rho_R[:, i] = 0.0
            rho_R[:nc, i] = _restrict_column(
                rho_g[:ni, i + 1], layout.l_int[:ni, i],
                layout.parent_left[:ni, i], layout.l_half[:, i], nc)
        if n_int[i] > n_half[i + 1]:  # right interface coarser
            ni, nc = n_int[i], n_half[i + 1]
            rho_L[:, i + 1] = 0.0
            rho_L[:nc, i + 1] = _restrict_column(
                rho_g[:ni, i + 1], layout.l_int[:ni, i],
                layout.parent_right[:ni, i], layout.l_half[:, i + 1], nc)
    return rho_L, rho_R


@dataclass
class FieldSet:
    """Interface-level quantities shared by the spatial operators."""

    u: np.ndarray         # (n_max, M+1) with boundary columns applied
    eta_g: np.ndarray     # (M+2,)
    rho_g: np.ndarray     # (n_max, M+2)
    b_g: np.ndarray       # (M+2,)
    h: np.ndarray         # (M,)
    h_g: np.ndarray       # (M+2,)
    h_half: np.ndarray    # (M+1,)
    ubar: np.ndarray      # (M+1,)
    rho_L: np.ndarray     # (n_max, M+1)
    rho_R: np.ndarray     # (n_max, M+1)
    rho_half: np.ndarray  # (n_max, M+1) upwind at velocity points
    flux: np.ndarray      # (n_max, M+1) per-layer mass flux l*h*u
    F: np.ndarray         # (M+1,) column mass flux


def prepare_fields(state: State, grid: Grid, t: float) -> FieldSet:
    """Assemble the upwind interface quantities for one RHS evaluation."""
    mesh, layout = grid.mesh, grid.layout
    u_full, eta_g, rho_g, b_g = boundary_values(state, grid, t)

    h_g = eta_g - b_g
    h = h_g[1:-1]
    if np.any(h <= grid.h_min):
        raise DryStateError("water depth below h_min")

    act_h = layout.active_half()
    ubar = np.sum(layout.l_half * u_full, axis=0)
    h_half = upwind_interface(h_g[:-1], h_g[1:], ubar)

    rho_L, rho_R = interface_cell_scalars(rho_g, grid)
    rho_half = np.where(act_h, upwind_interface(rho_L, rho_R, u_full), 0.0)
    fs = FieldSet(u=u_full, eta_g=eta_g, rho_g=rho_g, b_g=b_g, h=h, h_g=h_g,
                  h_half=None, ubar=ubar, rho_L=rho_L, rho_R=rho_R,
                  rho_half=rho_half, flux=None, F=None)
    return with_height(fs, grid, t, h_half)


def with_height(fs: FieldSet, grid: Grid, t: float, h_half) -> FieldSet:
    """fs with interface height h_half and the mass flux l*h*u that follows
    (a left discharge prescribes its own); no other field depends on it.
    Semi-implicit steps freeze the height at time level n."""
    flux = grid.layout.l_half * h_half * fs.u
    if not grid.bounds.periodic and isinstance(grid.bounds.left, Discharge):
        flux[:, 0] = grid.layout.l_half[:, 0] * grid.bounds.left.q(t)
    return replace(fs, h_half=h_half, flux=flux, F=np.sum(flux, axis=0))


# ---------------------------------------------------------------------------
# mass and transfer


def free_surface_rhs(fs: FieldSet, grid: Grid) -> np.ndarray:
    """d eta / dt: flux-form divergence of the column mass flux."""
    return -(fs.F[1:] - fs.F[:-1]) / grid.mesh.dx


def _cell_layer_flux(per_layer_iface, extra_iface, grid: Grid):
    """Per-layer interface fluxes seen from each cell, in the cell layering.

    per_layer_iface is (n_max, M+1) in interface layering (already a product
    l_half*h_half*u[*rho]); extra_iface carries h_half*u[*rho] without the
    fraction so transition cells can reweight with their own fractions.
    Returns (left, right) of shape (n_max, M).
    """
    layout = grid.layout
    left = per_layer_iface[:, :-1].copy()
    right = per_layer_iface[:, 1:].copy()
    if layout.uniform:
        return left, right
    n_half, n_int = layout.n_half, layout.n_int
    for i in np.nonzero(layout.transition_cell)[0]:
        ni = n_int[i]
        if ni > n_half[i]:
            p = layout.parent_left[:ni, i]
            left[:ni, i] = layout.l_int[:ni, i] * extra_iface[p, i]
            left[ni:, i] = 0.0
        if ni > n_half[i + 1]:
            p = layout.parent_right[:ni, i]
            right[:ni, i] = layout.l_int[:ni, i] * extra_iface[p, i + 1]
            right[ni:, i] = 0.0
    return left, right


def mass_transfer(fs: FieldSet, grid: Grid) -> np.ndarray:
    """Mass-transfer field at the horizontal layer interfaces of each cell.

    Returns G of shape (n_max+1, M) in m^2/s (undivided flux form); rows 0
    and n_int[i] are exactly zero and the per-cell telescoping sum vanishes
    by construction.
    """
    layout = grid.layout
    hu = fs.h_half * fs.u
    left, right = _cell_layer_flux(fs.flux, hu, grid)
    D = right - left
    SD = np.sum(D, axis=0)
    act = layout.active_int()
    term = np.where(act, D - layout.l_int * SD, 0.0)

    n_max, M = layout.n_max, grid.mesh.M
    G = np.zeros((n_max + 1, M))
    G[1:, :] = np.cumsum(term, axis=0)
    # bottom/surface entries are identically zero
    kk = np.arange(n_max + 1)[:, None]
    G[kk >= layout.n_int[None, :]] = 0.0
    return G


def density_interface_value(rho, G_inner, active_vert) -> np.ndarray:
    """Upwind density at the layer interfaces inside each column.

    rho is (n_max, M); G_inner is G[1:n_max] (the interior interfaces).
    Implements the average-minus-signed-jump form with sgn(0) = 0.
    """
    avg = 0.5 * (rho[:-1, :] + rho[1:, :])
    jump = rho[1:, :] - rho[:-1, :]
    val = avg - 0.5 * np.sign(-G_inner) * jump
    return np.where(active_vert, val, 0.0)


def density_rhs_flux(rho_stage_g, carrier_u, fs: FieldSet, grid: Grid) -> np.ndarray:
    """Conservative horizontal flux divergence of l*h*rho*u per cell layer.

    rho_stage_g is the ghost-extended density at the stage whose upwind
    values are carried by carrier_u; h comes from fs (frozen at level n for
    semi-implicit steps). Returns (n_max, M), already divided by dx.
    """
    layout = grid.layout
    act_h = layout.active_half()
    rho_L, rho_R = interface_cell_scalars(rho_stage_g, grid)
    rho_up = np.where(act_h, upwind_interface(rho_L, rho_R, carrier_u), 0.0)

    lhu = layout.l_half * fs.h_half * carrier_u
    if not grid.bounds.periodic and isinstance(grid.bounds.left, Discharge):
        # mirror the exact prescribed-discharge flux used in the mass equation
        lhu[:, 0] = fs.flux[:, 0]
    frho = lhu * rho_up
    hurho = fs.h_half * carrier_u * rho_up
    left, right = _cell_layer_flux(frho, hurho, grid)
    return -(right - left) / grid.mesh.dx


def vertical_density_term(rho_stage, G, grid: Grid) -> np.ndarray:
    """Vertical exchange term of the density equation, divided by dx."""
    layout = grid.layout
    n_max = layout.n_max
    kk = np.arange(1, n_max)[:, None]
    active_vert = kk < layout.n_int[None, :]
    rho_v = density_interface_value(rho_stage, G[1:n_max, :], active_vert)
    rg = np.zeros_like(G)
    rg[1:n_max, :] = rho_v * G[1:n_max, :]
    return (rg[1:, :] - rg[:-1, :]) / grid.mesh.dx


# ---------------------------------------------------------------------------
# momentum terms


def momentum_advection(fs: FieldSet, grid: Grid, limiter: bool) -> np.ndarray:
    """u * du/dx at the velocity points, upstream-biased second order with an
    optional minmod blend toward first-order upwind."""
    layout, mesh = grid.layout, grid.mesh
    u = fs.u
    n_max, M = layout.n_max, mesh.M
    periodic = grid.bounds.periodic

    if periodic:
        uu = u[:, :M]  # unique columns
        um1 = np.roll(uu, 1, axis=1)
        um2 = np.roll(uu, 2, axis=1)
        up1 = np.roll(uu, -1, axis=1)
        up2 = np.roll(uu, -2, axis=1)
        vm1 = vm2 = vp1 = vp2 = np.ones(M, dtype=bool)
        dxh = mesh.dx_half[:M]
        ucol = uu
    else:
        pad = np.zeros((n_max, 1))
        um1 = np.hstack([pad, u[:, :-1]])
        um2 = np.hstack([pad, pad, u[:, :-2]])
        up1 = np.hstack([u[:, 1:], pad])
        up2 = np.hstack([u[:, 2:], pad, pad])
        jj = np.arange(M + 1)
        vm1, vm2 = jj >= 1, jj >= 2
        vp1, vp2 = jj <= M - 1, jj <= M - 2
        dxh = mesh.dx_half
        ucol = u

    first_only = np.zeros(ucol.shape[1], dtype=bool)
    no_corr_m = np.zeros(ucol.shape[1], dtype=bool)  # upstream-left curvature unusable
    no_corr_p = np.zeros(ucol.shape[1], dtype=bool)
    if not layout.uniform:
        n_half, n_int = layout.n_half, layout.n_int
        for i in np.nonzero(layout.transition_cell)[0]:
            # remap single-hop neighbours across the transition pair (i, i+1)
            if i + 1 < um1.shape[1]:
                um1[:, i + 1] = _map_between_ifaces(u[:, i], grid, i, i + 1)
            up1[:, i] = _map_between_ifaces(u[:, i + 1], grid, i + 1, i)
            for j in (i, i + 1):
                if j < first_only.size:
                    first_only[j] = True
            if i + 2 < no_corr_m.size:
                no_corr_m[i + 2] = True
            if i - 1 >= 0:
                no_corr_p[i - 1] = True
    no_corr_m |= ~vm2
    no_corr_p |= ~vp2

    d1 = ucol - um1          # backward difference
    d0 = um1 - um2
    e1 = up1 - ucol          # forward difference
    e2 = up2 - up1

    # u > 0: upstream on the left
    corr_m = d1 - d0
    if limiter:
        lim = minmod(corr_m, e1 - d1)
        corr_m = np.where(vp1[None, :], lim, corr_m)
    corr_m = np.where(no_corr_m[None, :], 0.0, corr_m)
    s_pos = np.where(vm1[None, :], (d1 + 0.5 * corr_m) / dxh, 0.0)
    s_pos_first = np.where(vm1[None, :], d1 / dxh, 0.0)
    s_pos = np.where(first_only[None, :], s_pos_first, s_pos)

    # u < 0: upstream on the right
    corr_p = e1 - e2
    if limiter:
        lim = minmod(corr_p, d1 - e1)
        corr_p = np.where(vm1[None, :], lim, corr_p)
    corr_p = np.where(no_corr_p[None, :], 0.0, corr_p)
    s_neg = np.where(vp1[None, :], (e1 + 0.5 * corr_p) / dxh, 0.0)
    s_neg_first = np.where(vp1[None, :], e1 / dxh, 0.0)
    s_neg = np.where(first_only[None, :], s_neg_first, s_neg)

    slope = np.where(ucol > 0.0, s_pos, np.where(ucol < 0.0, s_neg, 0.0))
    adv = ucol * slope
    if periodic:
        out = np.zeros((n_max, M + 1))
        out[:, :M] = adv
        out[:, M] = adv[:, 0]
        return out
    return adv


def _map_between_ifaces(col, grid: Grid, j_from, j_to):
    """Map a velocity column from interface j_from's layering to j_to's.

    The two interfaces must be adjacent (they span one transition cell)."""
    layout = grid.layout
    i = min(j_from, j_to)  # the cell between them
    nf, nt = layout.n_half[j_from], layout.n_half[j_to]
    parent = layout.parent_left if j_from == i else layout.parent_right
    parent_to = layout.parent_left if j_to == i else layout.parent_right
    out = np.zeros_like(col)
    if nf == nt:
        return col.copy()
    if nf < nt:  # expand: copy parent values (cell layering == j_to layering)
        p = parent[:nt, i]
        out[:nt] = col[p]
    else:        # restrict: thickness-weighted average (cell layering == j_from)
        p = parent_to[:nf, i]
        out[:nt] = _restrict_column(col[:nf], layout.l_int[:nf, i], p,
                                    layout.l_half[:, j_to], nt)
    return out


def baroclinic_gradient(fs: FieldSet, grid: Grid) -> np.ndarray:
    """Density pressure terms per velocity point (non-stiff, sign ready to
    add to du/dt)."""
    layout, mesh, g = grid.layout, grid.mesh, grid.params.g
    l = layout.l_half
    act = layout.active_half()

    hL, hR = fs.h_g[:-1], fs.h_g[1:]
    drh = np.where(act, l * (fs.rho_R * hR - fs.rho_L * hL), 0.0)
    # sum over beta > alpha (exclusive reverse cumulative sum)
    tail = np.flip(np.cumsum(np.flip(drh, axis=0), axis=0), axis=0) - drh
    term1 = -(g / mesh.dx_half) * (tail + 0.5 * drh)

    csum = np.cumsum(l, axis=0) - l  # sum over beta < alpha
    dh = hR - hL
    db = fs.b_g[1:] - fs.b_g[:-1]
    term2 = -(g / mesh.dx_half) * fs.rho_half * (db + dh * (csum + 0.5 * l))
    return np.where(act, term1 + term2, 0.0)


def momentum_transfer_term(fs: FieldSet, G: np.ndarray, grid: Grid) -> np.ndarray:
    """Transfer contribution G * delta_u at velocity points (non-stiff)."""
    layout, mesh = grid.layout, grid.mesh
    n_max, M = layout.n_max, mesh.M

    Gv = _transfer_at_velocity_points(G, grid)  # (n_max+1, M+1)
    dU = np.zeros((n_max + 1, M + 1))
    dU[1:n_max, :] = 0.5 * (fs.u[1:, :] - fs.u[:-1, :])
    contrib = dU * Gv
    num = contrib[1:, :] + contrib[:-1, :]
    l_safe = np.where(layout.l_half > 0.0, layout.l_half, 1.0)
    out = num / (l_safe * fs.h_half * mesh.dx_half)
    return np.where(layout.active_half(), out, 0.0)


def _transfer_at_velocity_points(G, grid: Grid):
    """Average the cell-centered transfer field to the velocity points,
    remapping vertical-interface indices across layer-count transitions."""
    layout = grid.layout
    M = grid.mesh.M
    GL = np.empty((G.shape[0], M + 1))
    GR = np.empty_like(GL)
    GL[:, 1:] = G
    GL[:, 0] = G[:, 0]
    GR[:, :-1] = G
    GR[:, M] = G[:, M - 1]
    if grid.bounds.periodic:
        GL[:, 0] = G[:, M - 1]
        GR[:, M] = G[:, 0]
    if not layout.uniform:
        n_half, n_int = layout.n_half, layout.n_int
        for i in np.nonzero(layout.transition_cell)[0]:
            if n_int[i] > n_half[i]:
                # interface i is coarse; its right cell i is finer
                vmap = _vertical_map(layout.parent_left[: n_int[i], i], n_half[i])
                GR[:, i] = 0.0
                GR[: vmap.size, i] = G[vmap, i]
            if n_int[i] > n_half[i + 1]:
                vmap = _vertical_map(layout.parent_right[: n_int[i], i], n_half[i + 1])
                GL[:, i + 1] = 0.0
                GL[: vmap.size, i + 1] = G[vmap, i]
    return 0.5 * (GL + GR)


def _vertical_map(parent, n_coarse):
    """Indices of the fine vertical interfaces matching each coarse one."""
    return np.searchsorted(parent, np.arange(n_coarse + 1), side="left")


# ---------------------------------------------------------------------------
# vertical viscosity / friction


@dataclass
class ViscousCoeffs:
    """Per-column exchange coefficients: a[k] couples layers k-1 and k
    (already divided by the interface spacing l_v*h); c_bot and c_wind are
    the linearized bottom drag and wind-stress coefficients."""

    a: np.ndarray        # (n_max+1, M+1); rows 1..n-1 active
    c_bot: np.ndarray    # (M+1,)
    c_wind: np.ndarray   # (M+1,)
    u_wind: float
    trivial: bool


def viscous_coefficients(grid: Grid, h_half, u_ref) -> ViscousCoeffs:
    layout, p = grid.layout, grid.params
    n_max, Mp1 = layout.n_max, h_half.size
    a = np.zeros((n_max + 1, Mp1))
    c_bot = np.zeros(Mp1)
    c_wind = np.zeros(Mp1)

    trivial = p.nu == 0.0 and p.friction is None and p.wind.c_w == 0.0
    if trivial:
        return ViscousCoeffs(a, c_bot, c_wind, p.wind.u_w, True)

    kk = np.arange(1, n_max)[:, None]
    act = kk < layout.n_half[None, :]

    cf = np.zeros(Mp1)
    if p.friction is not None:
        dz_r = layout.l_half[0, :] * h_half
        arg = np.maximum(dz_r / p.friction.dz0, np.e)
        cf = (p.friction.kappa / np.log(arg)) ** 2
        c_bot = cf * np.abs(u_ref[0, :])

    nu = np.full((n_max - 1, Mp1), p.nu)
    if p.mixing_length and p.friction is not None:
        u_star = np.sqrt(cf) * np.abs(u_ref[0, :])
        z = np.cumsum(layout.l_half, axis=0)[:-1, :] * h_half  # interface heights
        prof = p.friction.kappa * u_star * z * np.maximum(1.0 - z / h_half, 0.0)
        nu = nu + prof
    nu = np.where(act, nu, 0.0)

    l_v = 0.5 * (layout.l_half[:-1, :] + layout.l_half[1:, :])
    l_v = np.where(act, l_v, 1.0)
    a[1:n_max, :] = nu / (l_v * h_half)

    if p.wind.c_w > 0.0:
        top = np.maximum(layout.n_half - 1, 0)
        u_top = u_ref[top, np.arange(Mp1)]
        c_wind = p.wind.c_w * np.abs(p.wind.u_w - u_top)
    return ViscousCoeffs(a, c_bot, c_wind, p.wind.u_w, False)


def viscous_exchange(u, h_half, coeffs: ViscousCoeffs, grid: Grid):
    """Explicit evaluation of the vertical viscosity/friction term (stiff)."""
    layout = grid.layout
    n_max = layout.n_max
    if coeffs.trivial:
        return np.zeros_like(u)
    K = np.zeros((n_max + 1, u.shape[1]))
    K[1:n_max, :] = coeffs.a[1:n_max, :] * (u[1:, :] - u[:-1, :])
    K[0, :] = coeffs.c_bot * u[0, :]
    top = np.maximum(layout.n_half - 1, 0)
    cols = np.arange(u.shape[1])
    u_top = u[top, cols]
    K[layout.n_half, cols] = coeffs.c_wind * (coeffs.u_wind - u_top)
    upper = K[1:, :]
    lower = K[:-1, :]
    l_safe = np.where(layout.l_half > 0.0, layout.l_half, 1.0)
    out = (upper - lower) / (l_safe * h_half)
    return np.where(layout.active_half(), out, 0.0)


# ---------------------------------------------------------------------------
# assembled tendencies


@dataclass
class Tendencies:
    d_eta: np.ndarray        # (M,) stiff mass-flux divergence
    d_u_stiff: np.ndarray    # (n_max, M+1)
    d_u_nonstiff: np.ndarray
    d_r: np.ndarray          # (n_max, M) conservative density tendency
    fields: FieldSet
    G: np.ndarray            # (n_max+1, M)


def barotropic_gradient(fs: FieldSet, grid: Grid) -> np.ndarray:
    g = grid.params.g
    grad = -(g / grid.mesh.dx_half) * (fs.eta_g[1:] - fs.eta_g[:-1])
    return np.where(grid.layout.active_half(), grad, 0.0)


def momentum_stiff(fs: FieldSet, coeffs: ViscousCoeffs, grid: Grid) -> np.ndarray:
    """Stiff momentum tendency: barotropic pressure gradient plus vertical
    viscosity and friction, zero off the prognostic velocities."""
    d_u = barotropic_gradient(fs, grid) + viscous_exchange(
        fs.u, fs.h_half, coeffs, grid)
    return np.where(grid.evolved_u, d_u, 0.0)


def momentum_nonstiff(fs: FieldSet, G, grid: Grid, limiter: bool) -> np.ndarray:
    """Non-stiff momentum tendency: advection, transfer and baroclinic
    pressure terms, zero off the prognostic velocities."""
    adv = momentum_advection(fs, grid, limiter)
    d_u = (-adv + momentum_transfer_term(fs, G, grid)
           + baroclinic_gradient(fs, grid))
    return np.where(grid.evolved_u, d_u, 0.0)


def density_tendency(fs: FieldSet, G, rho, grid: Grid) -> np.ndarray:
    """Conservative density tendency d(rho*l*h)/dt per live cell layer."""
    d_r = density_rhs_flux(fs.rho_g, fs.u, fs, grid) + vertical_density_term(
        rho, G, grid)
    return np.where(grid.layout.active_int(), d_r, 0.0)


def compute_tendencies(state: State, grid: Grid, t: float, *,
                       limiter: bool = False) -> Tendencies:
    """Full spatial right-hand side at (state, t)."""
    fs = prepare_fields(state, grid, t)
    G = mass_transfer(fs, grid)
    coeffs = viscous_coefficients(grid, fs.h_half, fs.u)
    return Tendencies(d_eta=free_surface_rhs(fs, grid),
                      d_u_stiff=momentum_stiff(fs, coeffs, grid),
                      d_u_nonstiff=momentum_nonstiff(fs, G, grid, limiter),
                      d_r=density_tendency(fs, G, state.rho, grid),
                      fields=fs, G=G)


def diagnostic_w(state: State, grid: Grid, t: float = 0.0) -> np.ndarray:
    """Vertical velocity at the interior layer interfaces of each cell,
    reconstructed from the kinematic relation (output only).

    Returns (n_max+1, M): w at the horizontal interfaces between layers."""
    mesh, layout = grid.mesh, grid.layout
    tend = compute_tendencies(state, grid, t)
    fs = tend.fields
    n_max, M = layout.n_max, mesh.M

    cum = np.cumsum(layout.l_int, axis=0)
    w = np.zeros((n_max + 1, M))
    # dz/dt at interface k follows the column stretching below it
    dzdt = cum * tend.d_eta[None, :]
    # horizontal slope of z_k, central where possible
    h = fs.h_g
    z_g = np.empty((n_max, M + 2))
    z_g[:, 1:-1] = fs.b_g[None, 1:-1] + cum * h[None, 1:-1]
    z_g[:, 0] = z_g[:, 1]
    z_g[:, -1] = z_g[:, -2]
    dzdx = (z_g[:, 2:] - z_g[:, :-2]) / (mesh.dx_half[:-1] + mesh.dx_half[1:])
    # layer-above velocity at the cell center
    u_c = 0.5 * (fs.u[:, :-1] + fs.u[:, 1:])
    u_above = np.vstack([u_c[1:, :], u_c[-1:, :]])
    w[1:, :] = dzdt + u_above * dzdx - G_over_dx(tend.G, mesh)[1:, :]
    kk = np.arange(n_max + 1)[:, None]
    return np.where(kk <= layout.n_int[None, :], w, 0.0)


def G_over_dx(G, mesh) -> np.ndarray:
    """Transfer field in velocity units (m/s)."""
    return G / mesh.dx[None, :]
