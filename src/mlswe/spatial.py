"""Discrete spatial operators on the staggered mesh.

Scalars (eta, rho) live at cell centers, velocities at interfaces. Interface
values of h and rho are upwind selections; the mass-transfer field couples
the layers vertically. The right-hand side comes in pieces that steppers
call separately: the stiff momentum term (barotropic pressure gradient,
vertical viscosity), the non-stiff one (momentum advection, transfer terms,
baroclinic pressure terms), the mass-flux divergence and the density term.
`compute_tendencies` composes all of them.

The operators rely on zero padding: the layer fractions `l_half`/`l_int` are
zero above the live layers, and so are the state's u and rho, the interface
densities and every per-layer flux built from them. A product with a
fraction or a flux is therefore already zero off the live layers and needs
no mask. The tendencies rest on this: the momentum ones only zero the
columns that are not prognostic (`Grid.fixed_u_columns`), the density one is
not masked, and the one full mask left is `barotropic_gradient`'s, whose
(M+1) row is not padded. Data that depends on the grid alone (masks, prefix
sums of the fractions, metric factors) is built once, read-only, as a cached
property of `Grid`; the operators never write into their inputs.

The operators check nothing: they trust that the state is finite, no cell
is dry and the padding is zero. A state is checked once: a run's start
by `State.validate` and a step's result by its integrator, in full; a
stage's depth where it is evaluated, after its solve in the IMEX step, by
`compute_tendencies` in the RK3 step and for an outside caller. Likewise
the columns a step does not evolve are closed where a step forms a
velocity: the integrators pass every stage's velocity, the result's and
the free-surface coefficient W through `Grid.fix_columns`, and
`stream_case` refuses a start that it would change. The operators read an
end's prescribed velocity through `boundary_velocities`.

Across a layer-count transition an interface sees a cell's densities,
transfer field or velocity differences through one remap,
`_seen_from_interfaces`, and a cell sees interface fluxes through
`_cell_layer_flux`.

Momentum advection runs in flat passes: u is copied once into a zeroed
flat buffer of rows M+5 wide, and its differences, curvatures, minmod and
slopes are each one contiguous pass over offset slices of it. Across a row's
end a pass reads padding (zeros, or the periodic wrap's copies of u) or the
zeroed slack after the last row, so it meets no non-finite value or
subnormal that u does not hold; only the last selection is cut to M+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .bc import Boundaries, closed
from .layers import LayerLayout
from .mesh import Mesh1D
from .state import H_MIN_DEFAULT, PhysParams, State, check_state


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class AdvectionColumns(NamedTuple):
    """Per column of `momentum_advection`'s rows, M+5 wide: the M+1
    interfaces (if periodic, column M is column 0's alias and takes its
    values), then four columns of padding, 0 in both rows; and the flat
    indices of its unlimited curvatures."""

    inv_dx: np.ndarray          # (2, M+5) 1/dx_half with a left (row 0) and
                                # a right (row 1) neighbour, else 0
    half_corr: np.ndarray       # (2, M+5) 1/2 (-1/2) where the upstream-left
                                # (right) curvature correction applies, else 0
                                # (first order next to a transition or an end)
    unlimited: np.ndarray       # the minmod entries that an end column reads
    unlimited_from: np.ndarray  # unlimited: these entries of the curvature


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
    h_min: ClassVar[float] = H_MIN_DEFAULT  # a cell this deep or less is dry

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
    def dx_half(self) -> np.ndarray:
        """Read-only (M+1,) center-to-center spacing across each interface; an
        end takes its cell's width, or the spacing across the periodic wrap."""
        x, dx = self.mesh.x_center, self.mesh.dx
        ends = [0.5 * (dx[0] + dx[-1])] * 2 if self.bounds.periodic else dx[[0, -1]]
        return _read_only(np.r_[ends[0], x[1:] - x[:-1], ends[1]])

    @cached_property
    def grad_factor(self) -> np.ndarray:
        """Read-only (M+1,) -g/dx_half: turns a jump of pressure head across
        an interface into an acceleration."""
        return _read_only(-(self.params.g / self.dx_half))

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
        return _read_only(self.layout.l_half_safe * self.dx_half)

    @cached_property
    def inner_interfaces(self) -> np.ndarray:
        """Read-only (n_max, M) mask of the layer interfaces k = 1..n_max of
        each cell (row k-1) that lie strictly inside its column."""
        k = np.arange(1, self.layout.n_max + 1)[:, None]
        return _read_only(k < self.layout.n_int[None, :])

    @cached_property
    def frac_below(self) -> np.ndarray:
        """Read-only (n_max-1, M+1) column fraction below each layer interface
        k = 1..n_max-1 (row k-1) at each velocity point."""
        return _read_only(np.cumsum(self.layout.l_half, axis=0)[:-1, :])

    @cached_property
    def inv_l_v(self) -> np.ndarray:
        """Read-only (n_max-1, M+1) inverse of the mean fraction of the two
        layers around each interface k = 1..n_max-1 (row k-1), the spacing of
        the vertical exchange; 0 unless both layers are live."""
        l = self.layout.l_half
        live = np.arange(1, self.layout.n_max)[:, None] < self.layout.n_half[None, :]
        return _read_only(np.divide(2.0, l[:-1, :] + l[1:, :], where=live,
                                    out=np.zeros(live.shape)))

    @cached_property
    def top_layer(self) -> tuple:
        """(layer, column) index arrays, read-only, of the top live layer at
        each velocity point."""
        return (_read_only(np.maximum(self.layout.n_half - 1, 0)),
                _read_only(np.arange(self.mesh.M + 1)))

    @cached_property
    def fixed_u_columns(self) -> np.ndarray:
        """Read-only index array of the velocity columns that are not
        prognostic: the ends of prescribed discharge (walls included) and,
        if periodic, the alias M of column 0."""
        fixed = [end.iface for end in self.discharge_ends] + [self.mesh.M] * (
            self.bounds.periodic)
        return _read_only(np.array(fixed, dtype=np.intp))

    @cached_property
    def evolved_u(self) -> np.ndarray:
        """Read-only (n_max, M+1) mask of the prognostic velocities: live
        layers off the `fixed_u_columns`."""
        evolved = self.layout.active_half().copy()
        evolved[:, self.fixed_u_columns] = False
        return _read_only(evolved)

    @cached_property
    def evolved_u_ones(self) -> np.ndarray:
        """Read-only `evolved_u` as floats, 1.0 and 0.0."""
        return _read_only(self.evolved_u.astype(float))

    def fix_columns(self, a: np.ndarray) -> np.ndarray:
        """a, an (..., M+1) interface array that a step forms (a stage's or
        a result's velocity, the free-surface W), closed in place and
        returned: 0 in the `fixed_u_columns`, then, if periodic, column 0's
        values in its alias M."""
        a[..., self.fixed_u_columns] = 0.0
        if self.bounds.periodic:
            a[..., -1] = a[..., 0]
        return a

    @cached_property
    def advection_columns(self) -> AdvectionColumns:
        """The read-only `AdvectionColumns` of `momentum_advection`."""
        M, periodic = self.mesh.M, self.bounds.periodic

        def at(j):  # interface indices -> columns: wrapped, or -1 past the ends
            return j % M if periodic else np.where((j >= 0) & (j <= M), j, -1)

        jj = at(np.arange(M + 1))
        trans = np.nonzero(self.layout.transition_cell)[0]
        first_only = np.isin(jj, at(trans)) | np.isin(jj, at(trans + 1))
        no_corr_m = first_only | (at(jj - 2) < 0) | np.isin(jj, at(trans + 2))
        no_corr_p = first_only | (at(jj + 2) < 0) | np.isin(jj, at(trans - 1))
        left, right = at(jj - 1) >= 0, at(jj + 1) >= 0
        # column j's upstream-left correction is minmod column j, its right
        # one column j+1; where an end column reads its own, the column that
        # shares it (1 or M-1) has no correction, so it may be unlimited.
        no_right, no_left = np.nonzero(~right)[0], np.nonzero(~left)[0]
        row_start = (M + 5) * np.arange(self.layout.n_max)[:, None]
        return AdvectionColumns(*map(_read_only, (
            *(np.pad(rows, ((0, 0), (0, 4))) for rows in (
                np.where([left, right], 1.0 / self.dx_half, 0.0),
                np.where([no_corr_m, no_corr_p], 0.0, [[0.5], [-0.5]]))),
            (row_start + np.concatenate([no_right, no_left + 1])).ravel(),
            (row_start + np.concatenate([no_right, no_left + 2])).ravel())))

    def __post_init__(self):
        """Reject a layout of another mesh, and boundary input that does not fit it."""
        layout, bounds, M = self.layout, self.bounds, self.mesh.M
        if layout.n_half.size != M + 1:
            raise ValueError(f"the layout has {layout.n_half.size - 1} cells, "
                             f"but the mesh has {M}")
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
    gives the arithmetic average (preserves rest states and symmetry). The
    scheme's one interface rule: on the velocity for height and density at
    the velocity points, on G for density at a layer interface (upper as left)."""
    return 0.5 * ((left + right) - np.sign(carrier) * (right - left))


def minmod(x):
    """minmod of each adjacent pair along the last axis of x: the value of
    smaller magnitude if the two have one sign, else 0 (the sign of a zero
    aside)."""
    a, b = x[..., :-1], x[..., 1:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return np.add(np.maximum(lo, 0.0, out=lo), np.minimum(hi, 0.0, out=hi), out=lo)


# ---------------------------------------------------------------------------
# boundary handling


def boundary_velocities(state: State, grid: Grid, t: float) -> np.ndarray:
    """state.u with its boundary columns filled: a prescribed discharge as
    one velocity over the boundary layers, and the periodic alias column."""
    u = state.u.copy()
    for end in grid.discharge_ends:
        nb, i = grid.layout.n_half[end.iface], end.cell
        u[:nb, end.iface] = end.flux(t) / (state.eta[i] - grid.mesh.b[i])
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

    Returns (u_full, eta_g, rho_g) where ghost arrays have length M+2
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
    return u_full, ghost_elevation(state.eta, grid, t), rho_g


# ---------------------------------------------------------------------------
# interface scalars


def _seen_from_interfaces(left, right, grid: Grid, coarse):
    """Cell columns seen from each interface j = 0..M: column j of `left`
    (`right`) is the cell on its left (right), as in a_g[:, :-1] (a_g[:, 1:])
    of an (rows, M+2) a_g with ghosts; columns past M are carried along. A
    coarse interface of a transition cell sees `coarse(side)` instead, one
    value per slot of the `RemapSide`; on a periodic grid interfaces 0 and M
    are one. (left, right) are returned as given on a bounded grid without
    transitions."""
    if grid.layout.remap or grid.bounds.periodic:  # rewritten below
        left, right = left.copy(), right.copy()
    for side in grid.layout.remap:
        out = side.at_coarse((right, left)[side.side])
        out[:, side.cell] = 0.0
        out[side.slot_layer, side.slot_cell] = coarse(side)
    if grid.bounds.periodic:
        M = grid.mesh.M
        left[:, 0] = left[:, M]
        right[:, M] = right[:, 0]
    return left, right


def interface_cell_scalars(rho_g, grid: Grid):
    """Cell densities seen from each interface, in its layering: (rho_L,
    rho_R), each (n_max, M+1); a coarse interface of a transition cell sees
    the restriction of the cell's column."""
    return _seen_from_interfaces(rho_g[:, :-1], rho_g[:, 1:], grid, lambda side:
                                 side.restrict(rho_g[side.layer, side.cell + 1]))


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


def prepare_fields(state: State, grid: Grid, t: float, u_full=None) -> FieldSet:
    """Assemble the upwind interface quantities for one RHS evaluation
    (u_full as for `boundary_values`)."""
    layout = grid.layout
    u_full, eta_g, rho_g = boundary_values(state, grid, t, u_full)

    h_g = eta_g - grid.b_g
    ubar = (layout.l_half * u_full).sum(axis=0)
    h_half = upwind_interface(h_g[:-1], h_g[1:], ubar)
    flux = layer_flux(u_full, h_half, grid, t)

    rho_L, rho_R = interface_cell_scalars(rho_g, grid)
    return FieldSet(u=u_full, eta_g=eta_g, h_g=h_g, h_half=h_half,
                    rho_L=rho_L, rho_R=rho_R,
                    rho_half=upwind_interface(rho_L, rho_R, u_full), flux=flux)


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
    F = fs.flux.sum(axis=0)
    return -(F[1:] - F[:-1]) / grid.mesh.dx


def _cell_layer_flux(per_layer, grid: Grid, share: bool = True):
    """Per-layer interface fluxes seen from each cell, in the cell layering.

    per_layer is (n_max, M+1) in interface layering; at its coarse
    interface a transition cell layer takes its share of its parent's flux
    (with share=False its parent's value, as a velocity is seen).
    Returns (left, right) of shape (n_max, M), views of per_layer unless
    the layout has transitions.
    """
    left, right = per_layer[:, :-1], per_layer[:, 1:]
    if grid.layout.remap:  # rewritten below
        left, right = left.copy(), right.copy()
    for side in grid.layout.remap:
        parent_flux = side.at_coarse(per_layer)[side.parent, side.cell]
        out = (left, right)[side.side]
        out[:, side.cell] = 0.0
        out[side.layer, side.cell] = side.share * parent_flux if share else parent_flux
    return left, right


def mass_transfer(flux, grid: Grid) -> np.ndarray:
    """Mass-transfer field at the horizontal layer interfaces of each cell,
    from the per-layer mass flux at the interfaces (a field set's `flux`,
    or a stage's at the frozen height).

    Returns G of shape (n_max+1, M) in m^2/s (undivided flux form); rows 0
    and n_int[i] are exactly zero and the per-cell telescoping sum vanishes
    by construction.
    """
    left, right = _cell_layer_flux(flux, grid)
    D = right - left
    term = D - grid.layout.l_int * D.sum(axis=0)
    G = np.zeros((grid.layout.n_max + 1, grid.mesh.M))
    # the surface entry and those above it are zero, not the round-off of
    # the telescoped sum
    np.multiply(grid.sum_below @ term, grid.inner_interfaces, out=G[1:])
    return G


def density_rhs_flux(rho_up, flux, grid: Grid) -> np.ndarray:
    """Conservative horizontal flux divergence of l*h*rho*u per cell layer.

    The interface densities rho_up, upwinded by the velocity that carries
    the per-layer mass flux `flux` (a field set's `rho_half` with its
    `flux`), ride on that flux: the flux of the continuity update, so a
    constant density stays constant. Returns (n_max, M), already divided
    by dx.
    """
    left, right = _cell_layer_flux(flux * rho_up, grid)
    d_r = left - right
    return np.divide(d_r, grid.mesh.dx, out=d_r)


def vertical_density_term(rho_stage, G, grid: Grid) -> np.ndarray:
    """Vertical exchange term of the density equation, divided by dx. A
    downward transfer (G > 0) carries the upper layer's density; the value
    is unmasked above the live interfaces, where G is zero."""
    n_max = grid.layout.n_max
    rho_v = upwind_interface(rho_stage[1:], rho_stage[:-1], G[1:n_max, :])
    flux = np.zeros(G.shape)  # rho_v G through each interface, 0 at the ends
    np.multiply(rho_v, G[1:n_max, :], out=flux[1:n_max])
    out = flux[1:] - flux[:-1]  # layer k: through interface k+1 less through k
    return np.divide(out, grid.mesh.dx, out=out)


# ---------------------------------------------------------------------------
# momentum terms


def momentum_advection(fs: FieldSet, grid: Grid, limiter: bool) -> np.ndarray:
    """u * du/dx at the velocity points, upstream-biased second order with an
    optional minmod blend toward first-order upwind. An interface sees the
    difference across each of its cells as it sees a cell scalar: that of a
    transition cell in the cell's layering, restricted at its coarse face."""
    u, cols, M = fs.u, grid.advection_columns, grid.mesh.M
    n, W = grid.layout.n_max, M + 5

    def rows(a, first=0):  # the (n_max, M+5) rows of a flat pass from `first`
        return a[first:first + n * W].reshape(n, W)

    # u at flat index k*W + 2 + j: two zero columns past each end of a row,
    # four zeros of slack after the last
    flat = np.zeros(n * W + 4)
    pad, pad_u = rows(flat), rows(flat, 2)  # pad_u[:, :M + 1] is u
    pad[:, 2:-2] = u
    if grid.bounds.periodic:  # wrap
        pad[:, :2], pad[:, -2:] = u[:, M - 2:M], u[:, 1:3]
    D = flat[1:] - flat[:-1]  # at i + 2: the difference across cell i
    DD = D[1:] - D[:-1]       # at i: d1 - d0 of interface i, at i + 2: e2 - e1
    if limiter:
        lim = minmod(DD)
        lim[cols.unlimited] = DD[cols.unlimited_from]
        corr = rows(lim), rows(lim, 1)
    else:
        corr = rows(DD), rows(DD, 2)

    def across(side, fine, coarse):  # the right face's value less the left's
        return fine - coarse if side.side == 0 else coarse - fine

    for side in grid.layout.remap:  # the fine face against the coarse injected
        fine = u[side.layer, side.cell + 1 - side.side]
        rows(D, 2)[side.layer, side.cell] = across(
            side, fine, side.at_coarse(u)[side.parent, side.cell])
    d1, e1 = _seen_from_interfaces(rows(D, 1), rows(D, 2), grid, lambda side: across(
        side, side.restrict(u[side.layer, side.cell + 1 - side.side]),
        side.at_coarse(u)[side.slot_layer, side.slot_cell]))  # backward, forward
    # upstream on the left (k = 0, for u > 0) and on the right (k = 1),
    # corrected by the signed half of a curvature
    s = [np.multiply(cols.half_corr[k], corr[k]) for k in (0, 1)]
    for k, diff in enumerate((d1, e1)):
        s[k] += diff
        s[k] *= cols.inv_dx[k]
    # u == 0 takes the upstream-right slope, and gives 0 all the same
    adv = np.where(pad_u > 0.0, *s)
    adv *= pad_u
    return adv[:, :M + 1]


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
    remapping vertical-interface indices across layer-count transitions:
    a coarse interface takes G at the cell interface below each of its
    layers (the cell's top interface G[n_int] is zero, as above each
    coarse column)."""
    # an end interface sees its cell on both sides
    G_g = np.concatenate([G[:, :1], G, G[:, -1:]], axis=1)
    GL, GR = _seen_from_interfaces(
        G_g[:, :-1], G_g[:, 1:], grid, lambda side: G[side.slot_first, side.slot_cell])
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
    lower[1:] = upper[:-1] = nu * grid.inv_l_v / h_half
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
    return grid.evolved_u_ones * grad


def momentum_stiff(fs: FieldSet, A: VerticalOperator | None, grid: Grid) -> np.ndarray:
    """Stiff momentum tendency: barotropic pressure gradient plus vertical
    viscosity and friction (A from `viscous_coefficients`), zero off the
    prognostic velocities."""
    d_u = barotropic_gradient(fs, grid)
    if A is not None:
        exchange = viscous_exchange(fs.u, A)  # zero off the live layers
        exchange[:, grid.fixed_u_columns] = 0.0
        d_u += exchange
    return d_u


def momentum_nonstiff(fs: FieldSet, G, grid: Grid, limiter: bool) -> np.ndarray:
    """Non-stiff momentum tendency: advection, transfer and baroclinic
    pressure terms, zero off the prognostic velocities."""
    d_u = momentum_transfer_term(fs, G, grid)  # all zero off the live layers
    d_u -= momentum_advection(fs, grid, limiter)
    d_u += baroclinic_gradient(fs, grid)
    d_u[:, grid.fixed_u_columns] = 0.0
    return d_u


def density_tendency(fs: FieldSet, G, rho, grid: Grid) -> np.ndarray:
    """Conservative density tendency d(rho*l*h)/dt per live cell layer."""
    return density_rhs_flux(fs.rho_half, fs.flux, grid) + (
        vertical_density_term(rho, G, grid))


def compute_tendencies(state: State, grid: Grid, t: float, *,
                       limiter: bool = False) -> Tendencies:
    """Full spatial right-hand side at (state, t). The depth is checked
    first (StepFailure on a dry cell); the caller answers for the rest of
    what the operators trust: finite values and zero padding."""
    check_state(state.depth(grid.mesh), grid.h_min)
    fs = prepare_fields(state, grid, t)
    G = mass_transfer(fs.flux, grid)
    A = viscous_coefficients(grid, fs.h_half, fs.u)
    return Tendencies(d_eta=free_surface_rhs(fs, grid),
                      d_u_stiff=momentum_stiff(fs, A, grid),
                      d_u_nonstiff=momentum_nonstiff(fs, G, grid, limiter),
                      d_r=density_tendency(fs, G, state.rho, grid))
