"""Discrete spatial operators on the staggered mesh.

Scalars (eta, rho) live at cell centers, velocities at interfaces. Interface
values of h and rho are upwind selections; the mass-transfer field couples
the layers vertically. The right-hand side comes in pieces that steppers
call separately: the stiff momentum term (barotropic pressure gradient,
vertical viscosity), the non-stiff one (momentum advection, transfer terms,
baroclinic pressure terms), the mass-flux divergence and the density term.
`compute_tendencies` composes all of them.

The operators rely on zero padding: the layer fractions `l_half`/`l_int`
are zero above the live layers, and so are the state's u and rho, the
interface densities and every per-layer flux built from them. A product
with a fraction or a flux is therefore already zero off the live layers and
needs no mask. Data that depends on the grid alone (masks, prefix sums of
the fractions, metric factors) is built once, read-only, as a cached
property of `Grid`; the operators never write into their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bc import Boundaries, closed
from .layers import LayerLayout
from .mesh import Mesh1D
from .state import H_MIN_DEFAULT, DryStateError, PhysParams, State


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class AdvectionColumns(NamedTuple):
    """Per column of `momentum_advection` (the M+1 interfaces; the M unique
    ones, wrapping, if periodic)."""

    left: np.ndarray             # a left neighbour exists
    right: np.ndarray            # a right neighbour exists
    inv_dx_left: np.ndarray      # 1/dx_half with a left neighbour, else 0
    inv_dx_right: np.ndarray     # 1/dx_half with a right neighbour, else 0
    half_corr_left: np.ndarray   # 1/2 where the upstream-left (right)
    half_corr_right: np.ndarray  # curvature correction applies, else 0
                                 # (first order next to a transition or an end)
    remap: tuple                 # per remap side the columns of its entries'
                                 # fine interfaces and of its slots' coarse ones


class End(NamedTuple):
    """One end of the domain as the operators see it."""

    cond: object   # its boundary condition
    iface: int     # the boundary interface
    ghost: int     # the ghost column of the (M+2)-wide ghost-extended arrays
    cell: int      # the cell through the boundary (the far end if periodic)
    sign: float    # inflow direction: +1 at the left end, -1 at the right

    def flux(self, t: float) -> float:
        """The prescribed column flux across the boundary interface, in +x."""
        return self.sign * self.cond.discharge(t)


@dataclass(frozen=True)
class Grid:
    """Static problem description shared by all operators."""

    mesh: Mesh1D
    layout: LayerLayout
    params: PhysParams
    bounds: Boundaries = field(default_factory=closed)
    h_min: float = H_MIN_DEFAULT

    @cached_property
    def ends(self) -> tuple:
        """The left and the right `End`."""
        M, periodic = self.mesh.M, self.bounds.periodic
        return (End(self.bounds.left, 0, 0, M - 1 if periodic else 0, 1.0),
                End(self.bounds.right, M, M + 1, 0 if periodic else M - 1, -1.0))

    @cached_property
    def discharge_ends(self) -> tuple:
        """The ends whose column discharge is prescribed (walls included)."""
        return tuple(end for end in self.ends if end.cond.discharge is not None)

    @cached_property
    def b_g(self) -> np.ndarray:
        """Read-only (M+2,) bathymetry; each ghost repeats the cell through
        its boundary."""
        left, right = self.ends
        return _read_only(self.mesh.b[np.r_[left.cell, :self.mesh.M, right.cell]])

    @cached_property
    def db(self) -> np.ndarray:
        """Read-only (M+1,) bathymetry jump across each interface."""
        return _read_only(self.b_g[1:] - self.b_g[:-1])

    @cached_property
    def grad_factor(self) -> np.ndarray:
        """Read-only (M+1,) -g/dx_half: turns a jump of pressure head across
        an interface into an acceleration."""
        return _read_only(-(self.params.g / self.mesh.dx_half))

    @cached_property
    def mid_depth(self) -> np.ndarray:
        """Read-only (n_max, M+1) column fraction below the middle of each
        interface layer (1 above the live layers)."""
        l = self.layout.l_half
        return _read_only(np.cumsum(l, axis=0) - l + 0.5 * l)

    @cached_property
    def sum_below(self) -> np.ndarray:
        """Read-only (n_max, n_max) lower-triangular ones: row k of
        `sum_below @ a` sums rows 0..k of a (a matrix product costs less
        than np.cumsum along the layers)."""
        return _read_only(np.tri(self.layout.n_max))

    @cached_property
    def sum_above(self) -> np.ndarray:
        """Read-only (n_max, n_max) strictly upper-triangular ones: row k of
        `sum_above @ a` sums the rows of a above k."""
        return _read_only(1.0 - np.tri(self.layout.n_max))

    @cached_property
    def l_dx_half(self) -> np.ndarray:
        """Read-only (n_max, M+1) divisor-safe l_half times dx_half."""
        return _read_only(self.layout.l_half_safe * self.mesh.dx_half)

    @cached_property
    def inner_interfaces(self) -> np.ndarray:
        """Read-only (n_max, M) mask of the layer interfaces k = 1..n_max of
        each cell (row k-1) that lie strictly inside its column."""
        k = np.arange(1, self.layout.n_max + 1)[:, None]
        return _read_only(k < self.layout.n_int[None, :])

    @cached_property
    def exchange_interfaces(self) -> np.ndarray:
        """Read-only (n_max-1, M+1) mask of the layer interfaces k = 1..n_max-1
        (row k-1) between two live layers at each velocity point."""
        k = np.arange(1, self.layout.n_max)[:, None]
        return _read_only(k < self.layout.n_half[None, :])

    @cached_property
    def frac_below(self) -> np.ndarray:
        """Read-only (n_max-1, M+1) column fraction below each layer interface
        k = 1..n_max-1 (row k-1) at each velocity point."""
        return _read_only(np.cumsum(self.layout.l_half, axis=0)[:-1, :])

    @cached_property
    def l_v(self) -> np.ndarray:
        """Read-only (n_max-1, M+1) mean fraction of the two layers around each
        interface k = 1..n_max-1 (row k-1): the spacing of the vertical
        exchange, in column fractions (1 where not both layers are live)."""
        l = self.layout.l_half
        return _read_only(np.where(self.exchange_interfaces,
                                   0.5 * (l[:-1, :] + l[1:, :]), 1.0))

    @cached_property
    def top_layer(self) -> tuple:
        """(layer, column) index arrays, read-only, of the top live layer at
        each velocity point."""
        return (_read_only(np.maximum(self.layout.n_half - 1, 0)),
                _read_only(np.arange(self.mesh.M + 1)))

    @cached_property
    def evolved_u(self) -> np.ndarray:
        """Read-only (n_max, M+1) mask of the prognostic velocities: live
        layers at every interface except the periodic alias and the ends of
        prescribed discharge (walls included)."""
        evolved = np.ones(self.mesh.M + 1, dtype=bool)
        for end in self.discharge_ends:
            evolved[end.iface] = False
        if self.bounds.periodic:
            evolved[-1] = False  # alias of column 0
        return _read_only(evolved[None, :] & self.layout.active_half())

    @cached_property
    def advection_columns(self) -> AdvectionColumns:
        """The read-only `AdvectionColumns` of `momentum_advection`."""
        M, periodic = self.mesh.M, self.bounds.periodic
        n = M if periodic else M + 1
        jj = np.arange(n)

        def at(j):  # interface indices -> columns: wrapped, or -1 past the ends
            return j % n if periodic else np.where((j >= 0) & (j < n), j, -1)

        trans = np.nonzero(self.layout.transition_cell)[0]
        first_only = np.isin(jj, at(trans)) | np.isin(jj, at(trans + 1))
        no_corr_m = first_only | (at(jj - 2) < 0) | np.isin(jj, at(trans + 2))
        no_corr_p = first_only | (at(jj + 2) < 0) | np.isin(jj, at(trans - 1))
        remap = tuple((at(s.cell + 1 - s.side), at(s.slot_cell + s.side))
                      for s in self.layout.remap)
        left, right = at(jj - 1) >= 0, at(jj + 1) >= 0
        inv_dx = 1.0 / self.mesh.dx_half[:n]
        return AdvectionColumns(*map(_read_only, (
            left, right, np.where(left, inv_dx, 0.0), np.where(right, inv_dx, 0.0),
            np.where(no_corr_m, 0.0, 0.5), np.where(no_corr_p, 0.0, 0.5))), remap)

    def __post_init__(self):
        """Reject boundary input that does not fit the layout."""
        layout, bounds, M = self.layout, self.bounds, self.mesh.M
        if bounds.periodic:
            ends = [layout.l_half[: layout.n_half[j], j] for j in (0, M)]
            if not np.array_equal(*ends):
                raise ValueError("periodic bounds need the same layer fractions at "
                                 f"interfaces 0 and {M}, got {ends[0]} and {ends[1]}")
            if layout.transition_cell[0] and layout.transition_cell[-1]:
                raise ValueError("two consecutive layer-count transitions "
                                 "across the periodic wrap are not allowed")
        for side, cond, j in (("left", bounds.left, 0), ("right", bounds.right, M)):
            rho = getattr(cond, "rho", None)  # the inflow profile of open boundaries
            if rho is not None and np.shape(rho(0.0)) != (layout.n_half[j],):
                raise ValueError(f"{side} {type(cond).__name__} rho(t) has shape "
                                 f"{np.shape(rho(0.0))}, but the {side} boundary "
                                 f"interface has {layout.n_half[j]} layers")


def upwind_interface(left, right, carrier):
    """Upwind selection: carrier > 0 picks left, < 0 picks right, exact zero
    gives the arithmetic average (preserves rest states and symmetry)."""
    return 0.5 * ((left + right) - np.sign(carrier) * (right - left))


def minmod(a, b):
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


# ---------------------------------------------------------------------------
# boundary handling


def boundary_velocities(state: State, grid: Grid, t: float) -> np.ndarray:
    """state.u with its boundary columns filled: a prescribed discharge as
    one velocity over the boundary layers, and the periodic alias column."""
    u = state.u.copy()
    for end in grid.discharge_ends:
        nb, i = grid.layout.n_half[end.iface], end.cell
        u[:nb, end.iface] = end.flux(t) / (state.eta[i] - grid.mesh.b[i])
        u[nb:, end.iface] = 0.0
    if grid.bounds.periodic:
        u[:, -1] = u[:, 0]
    return u


def ghost_elevation(eta, grid: Grid, t: float) -> np.ndarray:
    """eta with one ghost cell at each end, (M+2,)."""
    eta_g = np.empty(eta.size + 2)
    eta_g[1:-1] = eta
    for end in grid.ends:
        eta_g[end.ghost] = end.cond.ghost_eta(t, eta[end.cell])
    return eta_g


def boundary_values(state: State, grid: Grid, t: float, u_full=None):
    """Fill boundary velocity columns and build ghost-cell arrays.

    Returns (u_full, eta_g, rho_g, b_g) where ghost arrays have length M+2
    (index 0 = left ghost, M+1 = right ghost). A caller that has already
    filled the boundary columns of state.u (`boundary_velocities`) passes
    the result as u_full, which is returned as is.
    """
    rho_g = np.zeros((grid.layout.n_max, grid.mesh.M + 2))
    rho_g[:, 1:-1] = state.rho
    for end in grid.ends:
        rho = end.cond.ghost_rho(t, state.rho[:, end.cell])
        rho_g[:len(rho), end.ghost] = rho
    if u_full is None:
        u_full = boundary_velocities(state, grid, t)
    return u_full, ghost_elevation(state.eta, grid, t), rho_g, grid.b_g


# ---------------------------------------------------------------------------
# interface scalars


def interface_cell_scalars(rho_g, grid: Grid):
    """Cell densities seen from each interface, in that interface's layering.

    Returns (rho_L, rho_R), each (n_max, M+1). Away from layer-count
    transitions these are the neighbours' values (views of rho_g on a
    bounded grid without transitions); a coarse interface of a transition
    cell sees the restriction of the cell's column.
    """
    rho_L, rho_R = rho_g[:, :-1], rho_g[:, 1:]
    if grid.layout.remap or grid.bounds.periodic:  # rewritten below
        rho_L, rho_R = rho_L.copy(), rho_R.copy()
    rho = rho_g[:, 1:-1]
    for side in grid.layout.remap:
        out = side.at_coarse((rho_R, rho_L)[side.side])
        out[:, side.cell] = 0.0
        out[side.slot_layer, side.slot_cell] = side.restrict(rho[side.layer, side.cell])
    _alias_periodic(rho_L, rho_R, grid)
    return rho_L, rho_R


def _alias_periodic(left, right, grid: Grid):
    """On a periodic grid interface M is interface 0: the left-neighbour
    values of both come from column M, the right-neighbour values from 0."""
    if grid.bounds.periodic:
        left[:, 0] = left[:, -1]
        right[:, -1] = right[:, 0]


@dataclass
class FieldSet:
    """Interface-level quantities shared by the spatial operators."""

    u: np.ndarray         # (n_max, M+1) with boundary columns applied
    eta_g: np.ndarray     # (M+2,)
    h_g: np.ndarray       # (M+2,)
    h_half: np.ndarray    # (M+1,)
    rho_L: np.ndarray     # (n_max, M+1)
    rho_R: np.ndarray     # (n_max, M+1)
    rho_half: np.ndarray  # (n_max, M+1) upwind at velocity points
    flux: np.ndarray      # (n_max, M+1) per-layer mass flux l*h*u
    F: np.ndarray         # (M+1,) column mass flux


def prepare_fields(state: State, grid: Grid, t: float, u_full=None) -> FieldSet:
    """Assemble the upwind interface quantities for one RHS evaluation
    (u_full as for `boundary_values`)."""
    layout = grid.layout
    u_full, eta_g, rho_g, b_g = boundary_values(state, grid, t, u_full)

    h_g = eta_g - b_g
    if np.any(h_g[1:-1] <= grid.h_min):
        raise DryStateError("water depth below h_min")

    ubar = np.sum(layout.l_half * u_full, axis=0)
    h_half = upwind_interface(h_g[:-1], h_g[1:], ubar)
    flux = layer_flux(u_full, h_half, grid, t)

    rho_L, rho_R = interface_cell_scalars(rho_g, grid)
    return FieldSet(u=u_full, eta_g=eta_g, h_g=h_g, h_half=h_half,
                    rho_L=rho_L, rho_R=rho_R,
                    rho_half=upwind_interface(rho_L, rho_R, u_full), flux=flux,
                    F=np.sum(flux, axis=0))


def layer_flux(u, h_half, grid: Grid, t: float) -> np.ndarray:
    """Per-layer mass flux l*h*u at the interfaces, (n_max, M+1). An end of
    prescribed discharge carries its discharge at t, split by the layer
    fractions. Semi-implicit steps pass the height frozen at time level n."""
    flux = grid.layout.l_half * h_half * u
    for end in grid.discharge_ends:
        flux[:, end.iface] = grid.layout.l_half[:, end.iface] * end.flux(t)
    return flux


# ---------------------------------------------------------------------------
# mass and transfer


def free_surface_rhs(fs: FieldSet, grid: Grid) -> np.ndarray:
    """d eta / dt: flux-form divergence of the column mass flux."""
    return -(fs.F[1:] - fs.F[:-1]) / grid.mesh.dx


def _cell_layer_flux(per_layer_iface, grid: Grid, h_half, *factors):
    """Per-layer interface fluxes seen from each cell, in the cell layering.

    per_layer_iface is (n_max, M+1) in interface layering, the product
    l_half*h_half*factors; a transition cell reweights h_half*factors of
    each parent layer at its coarse interface with its own fractions.
    Returns (left, right) of shape (n_max, M), views of per_layer_iface
    unless the layout has transitions.
    """
    left, right = per_layer_iface[:, :-1], per_layer_iface[:, 1:]
    if grid.layout.remap:  # rewritten below
        left, right = left.copy(), right.copy()
    for side in grid.layout.remap:
        j = side.cell + side.side  # each entry's coarse interface
        coarse = h_half[j]
        for f in factors:
            coarse = coarse * f[side.parent, j]
        out = (left, right)[side.side]
        out[:, side.cell] = 0.0
        out[side.layer, side.cell] = side.l_fine * coarse
    return left, right


def mass_transfer(u, flux, h_half, grid: Grid) -> np.ndarray:
    """Mass-transfer field at the horizontal layer interfaces of each cell,
    from the velocity u and the per-layer mass flux it carries at h_half.

    Returns G of shape (n_max+1, M) in m^2/s (undivided flux form); rows 0
    and n_int[i] are exactly zero and the per-cell telescoping sum vanishes
    by construction.
    """
    left, right = _cell_layer_flux(flux, grid, h_half, u)
    D = right - left
    term = D - grid.layout.l_int * np.sum(D, axis=0)
    G = np.zeros((grid.layout.n_max + 1, grid.mesh.M))
    # the surface entry and those above it are zero, not the round-off of
    # the telescoped sum
    np.multiply(grid.sum_below @ term, grid.inner_interfaces, out=G[1:])
    return G


def density_interface_value(rho, G_inner) -> np.ndarray:
    """Upwind density at the layer interfaces inside each column.

    rho is (n_max, M); G_inner is G[1:n_max] (the interior interfaces).
    Implements the average-minus-signed-jump form with sgn(0) = 0. Above
    the live interfaces the value is unmasked: it only ever multiplies G,
    which is zero there.
    """
    avg = 0.5 * (rho[:-1, :] + rho[1:, :])
    jump = rho[1:, :] - rho[:-1, :]
    return avg + 0.5 * np.sign(G_inner) * jump


def density_rhs_flux(rho_up, carrier_u, flux, h_half, grid: Grid) -> np.ndarray:
    """Conservative horizontal flux divergence of l*h*rho*u per cell layer.

    The interface densities rho_up, upwinded by carrier_u (a field set's
    `rho_half` if the carrier is its `u`), ride on the per-layer mass flux
    `flux` that carrier_u carries at height h_half: the flux of the
    continuity update, so a constant density stays constant. Returns
    (n_max, M), already divided by dx.
    """
    left, right = _cell_layer_flux(flux * rho_up, grid, h_half, carrier_u, rho_up)
    return -(right - left) / grid.mesh.dx


def vertical_density_term(rho_stage, G, grid: Grid) -> np.ndarray:
    """Vertical exchange term of the density equation, divided by dx."""
    n_max = grid.layout.n_max
    rho_v = density_interface_value(rho_stage, G[1:n_max, :])
    rg = np.zeros_like(G)
    rg[1:n_max, :] = rho_v * G[1:n_max, :]
    return (rg[1:, :] - rg[:-1, :]) / grid.mesh.dx


# ---------------------------------------------------------------------------
# momentum terms


def momentum_advection(fs: FieldSet, grid: Grid, limiter: bool) -> np.ndarray:
    """u * du/dx at the velocity points, upstream-biased second order with an
    optional minmod blend toward first-order upwind."""
    layout, u = grid.layout, fs.u
    cols = grid.advection_columns
    n = cols.left.size
    ends = ((u[:, n - 2:n], u[:, :2]) if n == grid.mesh.M  # periodic: wrap
            else (np.zeros((layout.n_max, 2)),) * 2)
    u_pad = np.hstack([ends[0], u[:, :n], ends[1]])
    um2, um1, ucol, up1, up2 = (u_pad[:, k:k + n] for k in range(5))
    if layout.remap:  # rewritten below
        um1, up1 = um1.copy(), up1.copy()
    for side, (fine, coarse) in zip(layout.remap, cols.remap):
        # neighbours across a transition cell, each in the other's layering
        toward_coarse, toward_fine = (um1, up1) if side.side == 0 else (up1, um1)
        toward_coarse[:, fine] = 0.0
        toward_coarse[side.layer, fine] = side.at_coarse(u)[side.parent, side.cell]
        toward_fine[:, coarse] = 0.0
        toward_fine[side.slot_layer, coarse] = side.restrict(u[side.layer, fine])

    d1 = ucol - um1          # backward difference
    d0 = um1 - um2
    e1 = up1 - ucol          # forward difference
    e2 = up2 - up1

    # u > 0: upstream on the left
    corr_m = d1 - d0
    if limiter:
        corr_m = np.where(cols.right, minmod(corr_m, e1 - d1), corr_m)
    s_pos = (d1 + cols.half_corr_left * corr_m) * cols.inv_dx_left

    # u < 0: upstream on the right
    corr_p = e1 - e2
    if limiter:
        corr_p = np.where(cols.left, minmod(corr_p, d1 - e1), corr_p)
    s_neg = (e1 + cols.half_corr_right * corr_p) * cols.inv_dx_right

    # u == 0 takes s_neg, and gives 0 all the same
    adv = ucol * np.where(ucol > 0.0, s_pos, s_neg)
    if n == grid.mesh.M:  # periodic: the alias column M repeats column 0
        adv = np.concatenate([adv, adv[:, :1]], axis=1)
    return adv


def baroclinic_gradient(fs: FieldSet, grid: Grid) -> np.ndarray:
    """Density pressure terms per velocity point (non-stiff, sign ready to
    add to du/dt)."""
    hL, hR = fs.h_g[:-1], fs.h_g[1:]
    drh = grid.layout.l_half * (fs.rho_R * hR - fs.rho_L * hL)
    # sum over beta > alpha
    return grid.grad_factor * (grid.sum_above @ drh + 0.5 * drh + fs.rho_half * (
        grid.db + (hR - hL) * grid.mid_depth))


def momentum_transfer_term(fs: FieldSet, G: np.ndarray, grid: Grid) -> np.ndarray:
    """Transfer contribution G * delta_u at velocity points (non-stiff)."""
    n_max, M = grid.layout.n_max, grid.mesh.M
    Gv = _transfer_at_velocity_points(G, grid)  # (n_max+1, M+1)
    dU = np.zeros((n_max + 1, M + 1))
    dU[1:n_max, :] = 0.5 * (fs.u[1:, :] - fs.u[:-1, :])
    contrib = dU * Gv
    num = contrib[1:, :] + contrib[:-1, :]
    return num / (fs.h_half * grid.l_dx_half)


def _transfer_at_velocity_points(G, grid: Grid):
    """Average the cell-centered transfer field to the velocity points,
    remapping vertical-interface indices across layer-count transitions."""
    GL = np.concatenate([G[:, :1], G], axis=1)   # the cell left of each
    GR = np.concatenate([G, G[:, -1:]], axis=1)  # interface, or beside a wall
    for side in grid.layout.remap:
        # the cell's top interface G[n_int] is zero, as above each coarse column
        out = side.at_coarse((GR, GL)[side.side])
        out[:, side.cell] = 0.0
        out[side.slot_layer, side.slot_cell] = G[side.slot_first, side.slot_cell]
    _alias_periodic(GL, GR, grid)
    return 0.5 * (GL + GR)


# ---------------------------------------------------------------------------
# vertical viscosity / friction


class VerticalOperator(NamedTuple):
    """The vertical exchange A u + k of every column: viscosity and
    mixing-length eddy viscosity between the layers, linearized bottom drag
    below the bottom layer and wind stress above the top one. The bands are
    zero off the live layers."""

    sub: np.ndarray   # (n_max, M+1) sub[k] couples layer k to k-1 (sub[0] = 0)
    diag: np.ndarray  # (n_max, M+1)
    sup: np.ndarray   # (n_max, M+1) sup[k] couples layer k to k+1 (sup[-1] = 0)
    k: np.ndarray     # (n_max, M+1) constant forcing (wind), zero below the top


def viscous_coefficients(grid: Grid, h_half, u_ref) -> VerticalOperator | None:
    """A at the interface height h_half, its drag, wind stress and eddy
    viscosity linearized about the velocity u_ref; None when nothing is
    exchanged (no viscosity, friction or wind)."""
    layout, p = grid.layout, grid.params
    if p.nu == 0.0 and p.friction is None and p.wind.c_w == 0.0:
        return None
    n_max, Mp1 = layout.n_max, h_half.size
    inv_lh = 1.0 / (layout.l_half_safe * h_half)

    nu = p.nu
    if p.friction is not None:
        dz_r = layout.l_half[0, :] * h_half
        cf = (p.friction.kappa / np.log(np.maximum(dz_r / p.friction.dz0, np.e))) ** 2
        if p.mixing_length:
            u_star = np.sqrt(cf) * np.abs(u_ref[0, :])
            z = grid.frac_below * h_half  # interface heights
            nu = nu + p.friction.kappa * u_star * z * np.maximum(1.0 - z / h_half, 0.0)

    # lower[k] couples layer k to the one below it, upper[k] to the one above
    lower = np.zeros((n_max, Mp1))
    upper = np.zeros((n_max, Mp1))
    lower[1:] = upper[:-1] = (np.where(grid.exchange_interfaces, nu, 0.0)
                              / (grid.l_v * h_half))
    sub, sup = lower * inv_lh, upper * inv_lh
    # bottom drag couples the bottom layer to the bed, wind stress the top
    # layer to the wind
    k = np.zeros((n_max, Mp1))
    if p.friction is not None:
        lower[0] = cf * np.abs(u_ref[0, :])
    if p.wind.c_w > 0.0:
        top = grid.top_layer
        c_wind = p.wind.c_w * np.abs(p.wind.u_w - u_ref[top])
        upper[top] = c_wind
        k[top] = c_wind * p.wind.u_w * inv_lh[top]
    return VerticalOperator(sub, -(upper + lower) * inv_lh, sup, k)


def viscous_exchange(u, A: VerticalOperator) -> np.ndarray:
    """A u + k: the vertical viscosity/friction tendency of u (stiff)."""
    out = A.diag * u + A.k
    out[1:] += A.sub[1:] * u[:-1]
    out[:-1] += A.sup[:-1] * u[1:]
    return out


# ---------------------------------------------------------------------------
# assembled tendencies


@dataclass
class Tendencies:
    d_eta: np.ndarray        # (M,) stiff mass-flux divergence
    d_u_stiff: np.ndarray    # (n_max, M+1)
    d_u_nonstiff: np.ndarray
    d_r: np.ndarray          # (n_max, M) conservative density tendency


def barotropic_gradient(fs: FieldSet, grid: Grid) -> np.ndarray:
    """-g d eta/dx at the prognostic velocities, zero elsewhere."""
    grad = grid.grad_factor * (fs.eta_g[1:] - fs.eta_g[:-1])
    return np.where(grid.evolved_u, grad, 0.0)


def momentum_stiff(fs: FieldSet, A: VerticalOperator | None, grid: Grid) -> np.ndarray:
    """Stiff momentum tendency: barotropic pressure gradient plus vertical
    viscosity and friction (A from `viscous_coefficients`), zero off the
    prognostic velocities."""
    d_u = barotropic_gradient(fs, grid)
    if A is not None:
        d_u += np.where(grid.evolved_u, viscous_exchange(fs.u, A), 0.0)
    return d_u


def momentum_nonstiff(fs: FieldSet, G, grid: Grid, limiter: bool) -> np.ndarray:
    """Non-stiff momentum tendency: advection, transfer and baroclinic
    pressure terms, zero off the prognostic velocities."""
    adv = momentum_advection(fs, grid, limiter)
    d_u = (-adv + momentum_transfer_term(fs, G, grid)
           + baroclinic_gradient(fs, grid))
    return np.where(grid.evolved_u, d_u, 0.0)


def density_tendency(fs: FieldSet, G, rho, grid: Grid) -> np.ndarray:
    """Conservative density tendency d(rho*l*h)/dt per live cell layer."""
    d_r = density_rhs_flux(fs.rho_half, fs.u, fs.flux, fs.h_half, grid) + (
        vertical_density_term(rho, G, grid))
    return np.where(grid.layout.active_int(), d_r, 0.0)


def compute_tendencies(state: State, grid: Grid, t: float, *,
                       limiter: bool = False) -> Tendencies:
    """Full spatial right-hand side at (state, t)."""
    fs = prepare_fields(state, grid, t)
    G = mass_transfer(fs.u, fs.flux, fs.h_half, grid)
    A = viscous_coefficients(grid, fs.h_half, fs.u)
    return Tendencies(d_eta=free_surface_rhs(fs, grid),
                      d_u_stiff=momentum_stiff(fs, A, grid),
                      d_u_nonstiff=momentum_nonstiff(fs, G, grid, limiter),
                      d_r=density_tendency(fs, G, state.rho, grid))
