from dataclasses import fields

import numpy as np
import pytest

from mlswe import (Boundaries, Discharge, Elevation, PhysParams, State, Wall,
                   build_layout, build_mesh, build_problem, case_tidal, closed,
                   compute_tendencies, periodic, rest_state, uniform_layout)
from mlswe import spatial
from mlswe.layers import refine_parent
from mlswe.spatial import (Grid, baroclinic_gradient, boundary_values,
                           density_interface_value, mass_transfer, minmod,
                           momentum_advection, prepare_fields,
                           upwind_interface, viscous_coefficients)
from test_step_reference import _perturb, reference_runs


def make_grid(M=16, n_layers=3, x_max=1.0, bathymetry=0.0, bounds=None,
              params=None, layers=None):
    mesh = build_mesh(0.0, x_max, M, bathymetry=bathymetry)
    if layers is not None:
        layout = build_layout(mesh, layers)
    else:
        layout = uniform_layout(mesh, n_layers)
    return Grid(mesh=mesh, layout=layout, params=params or PhysParams(),
                bounds=bounds or closed())


# ---------------------------------------------------------------------------
# primitive selectors


def test_upwind_interface_selection_and_tie():
    left, right = np.array([1.0, 1.0, 1.0]), np.array([3.0, 3.0, 3.0])
    carrier = np.array([2.0, -2.0, 0.0])
    out = upwind_interface(left, right, carrier)
    # positive carrier takes the left value, negative the right,
    # exact zero the average (keeps rest states symmetric)
    assert out.tolist() == [1.0, 3.0, 2.0]


def test_minmod_properties():
    a = np.array([1.0, -1.0, 2.0, -3.0, 0.0])
    b = np.array([2.0, -0.5, -1.0, -3.0, 5.0])
    out = minmod(np.stack([a, b], axis=-1))[:, 0]
    assert out.tolist() == [1.0, -0.5, 0.0, -3.0, 0.0]
    assert minmod(np.array([1.0, 2.0, -1.0, -3.0, -2.0])).tolist() == [1.0, 0.0, -1.0, -2.0]


# ---------------------------------------------------------------------------
# boundary handling


def test_wall_boundary_mirrors_and_zeroes():
    grid = make_grid(bounds=Boundaries(Wall(), Wall()))
    st = rest_state(grid.mesh, grid.layout, eta0=0.4)
    st.rho[:, 0] = 0.02
    u_full, eta_g, rho_g = boundary_values(st, grid, 0.0)
    assert np.all(u_full[:, 0] == 0.0) and np.all(u_full[:, -1] == 0.0)
    assert eta_g[0] == st.eta[0] and eta_g[-1] == st.eta[-1]
    assert np.allclose(rho_g[:, 0], st.rho[:, 0])


def test_discharge_boundary_velocity_profile():
    q = 0.12
    grid = make_grid(bounds=Boundaries(
        Discharge(q=lambda t: q, rho=lambda t: np.zeros(3)), Wall()))
    st = rest_state(grid.mesh, grid.layout, eta0=0.4)
    u_full, *_ = boundary_values(st, grid, 0.0)
    h = 0.4
    assert np.allclose(u_full[:, 0], q / h)
    # the per-layer boundary mass flux adds up to exactly q
    fs = prepare_fields(st, grid, 0.0)
    assert np.sum(fs.flux[:, 0]) == pytest.approx(q, rel=1e-14)


def test_elevation_boundary_ghost():
    eta_bc = 0.45
    grid = make_grid(bounds=Boundaries(
        Wall(), Elevation(eta=lambda t: eta_bc, rho=lambda t: np.zeros(3))))
    st = rest_state(grid.mesh, grid.layout, eta0=0.4)
    _, eta_g, _ = boundary_values(st, grid, 0.0)
    assert eta_g[-1] == eta_bc


def test_periodic_wraparound():
    grid = make_grid(bounds=periodic())
    st = rest_state(grid.mesh, grid.layout, eta0=0.4)
    st.eta[:] = 0.4 + 0.01 * np.sin(2 * np.pi * grid.mesh.x_center)
    _, eta_g, _ = boundary_values(st, grid, 0.0)
    assert eta_g[0] == st.eta[-1] and eta_g[-1] == st.eta[0]


# ---------------------------------------------------------------------------
# mass transfer


def test_mass_transfer_telescopes_and_caps():
    grid = make_grid(M=12, n_layers=4, bounds=periodic())
    st = rest_state(grid.mesh, grid.layout, eta0=0.5)
    rng = np.random.default_rng(7)
    st.u[:] = 0.1 * rng.standard_normal(st.u.shape)
    st.u[:, -1] = st.u[:, 0]
    fs = prepare_fields(st, grid, 0.0)
    G = mass_transfer(fs.flux, grid)
    # bottom and surface rows are identically zero, columns telescope
    assert np.all(G[0, :] == 0.0)
    assert np.all(G[-1, :] == 0.0)
    hu = fs.flux
    div = hu[:, 1:] - hu[:, :-1]
    # G jump reproduces the per-layer mass balance with fixed fractions
    expected = div - grid.layout.l_int * np.sum(div, axis=0)
    assert np.allclose(G[1:, :] - G[:-1, :], expected, atol=1e-15)


def test_mass_transfer_sign_two_layer_exchange():
    """Bottom-layer horizontal convergence must push fluid upward: the
    interior transfer value is negative (downward-positive convention)."""
    grid = make_grid(M=8, n_layers=2, bounds=periodic())
    st = rest_state(grid.mesh, grid.layout, eta0=1.0)
    x = grid.mesh.x_iface
    st.u[0, :] = -np.sin(2 * np.pi * x)   # converging at x=0.25 in layer 0
    st.u[1, :] = +np.sin(2 * np.pi * x)   # diverging above
    fs = prepare_fields(st, grid, 0.0)
    G = mass_transfer(fs.flux, grid)
    i = np.argmin(np.abs(grid.mesh.x_center - 0.25))
    assert G[1, i] < 0.0  # upward transfer


def _prolonged_as_first_written(per_layer, grid, h_half, *factors):
    """Reference for the per-layer fluxes seen from each cell: a transition
    cell layer takes its own fraction times h_half and the factors of its
    parent layer at the coarse interface; elsewhere the cell sees per_layer
    (l_half * h_half * factors). Returns (left, right), each (n_max, M)."""
    layout = grid.layout
    left, right = per_layer[:, :-1].copy(), per_layer[:, 1:].copy()
    for i in np.nonzero(layout.transition_cell)[0]:
        j = i if layout.n_half[i] < layout.n_half[i + 1] else i + 1
        n = layout.n_int[i]
        parent = refine_parent(layout.l_half[:, j], layout.l_int[:, i])[:n]
        coarse = h_half[j] * np.prod([f[parent, j] for f in factors], axis=0)
        out = left if j == i else right
        out[:, i] = 0.0
        out[:n, i] = layout.l_int[:n, i] * coarse
    return left, right


def _remap_problem(name):
    """(grid, state, t) of a step-reference run by name, of the perturbed
    tidal nvar1 layout with a current, or of the periodic 4-layer band
    that starts at interface N (`bandN`); bands 1 and 29 have a coarse
    transition interface at the wrap (left of cell 0, right of cell M-1)."""
    if name.startswith("band"):
        grid, state = _band_problem(int(name[4:]), 0.05)
        return grid, state, 0.0
    if name == "tidal_nvar1":  # a current, as the wave's node is the transition
        grid, state = build_problem(case_tidal(layout="nvar1", M=40))
        state = _perturb(grid, state, 0.5, 0.2, 0.01)
        state.u = np.where(grid.layout.active_half(), state.u + 0.05, 0.0)
        return grid, state, 3.0 * 3600.0
    return reference_runs()[name][2:5]


@pytest.mark.parametrize("name", ["tidal_nvar4", "tidal_nvar1", "basin_242",
                                  "basin_424", "band1", "band29"])
def test_remap_prolongs_as_first_written(name):
    """mass_transfer and density_rhs_flux, which prolong the flux they are
    given by each cell layer's share, equal the prolongation from the
    velocity, the height and the density at the coarse interface."""
    grid, state, t = _remap_problem(name)
    layout = grid.layout
    assert layout.remap
    fs = prepare_fields(state, grid, t)
    left, right = _prolonged_as_first_written(fs.flux, grid, fs.h_half, fs.u)
    D = right - left
    G = np.zeros((layout.n_max + 1, grid.mesh.M))
    G[1:] = np.where(grid.inner_interfaces,
                     np.cumsum(D - layout.l_int * np.sum(D, axis=0), axis=0), 0.0)
    left, right = _prolonged_as_first_written(fs.flux * fs.rho_half, grid, fs.h_half,
                                              fs.u, fs.rho_half)
    d_r = -(right - left) / grid.mesh.dx
    for got, want in ((mass_transfer(fs.flux, grid), G),
                      (spatial.density_rhs_flux(fs.rho_half, fs.flux, grid), d_r)):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_density_interface_upwind_direction():
    rho = np.array([[0.03], [0.0]])     # dense below, light above
    up = density_interface_value(rho, np.array([[-1.0]]))   # upward
    down = density_interface_value(rho, np.array([[+1.0]]))  # downward
    tie = density_interface_value(rho, np.array([[0.0]]))
    assert up[0, 0] == 0.03    # carries the lower layer's density
    assert down[0, 0] == 0.0   # carries the upper layer's density
    assert tie[0, 0] == pytest.approx(0.015)


# ---------------------------------------------------------------------------
# pressure terms: exact-integral oracle


def _exact_layer_pressure_accel(x, eta_f, b_f, rho_f, l, g, eps=1e-6):
    """Layer-averaged acceleration from the direct integral of hydrostatic
    pressure (buoyancy part), via Leibniz differentiation of the layer
    integral of int_z^eta rho dz'."""
    N = l.size

    def parts(xx):
        h = eta_f(xx) - b_f(xx)
        rho = rho_f(xx)
        hh = l * h
        above = np.array([np.sum(rho[a + 1:] * hh[a + 1:]) for a in range(N)])
        integral = hh * above + rho * hh ** 2 / 2
        z_top = b_f(xx) + h * np.cumsum(l)
        z_bot = z_top - hh
        return integral, above, above + rho * hh, z_top, z_bot, hh

    I0, Bt0, Bb0, zt0, zb0, hh0 = parts(x - eps)
    I1, Bt1, Bb1, zt1, zb1, hh1 = parts(x + eps)
    Bt, Bb, hh = 0.5 * (Bt0 + Bt1), 0.5 * (Bb0 + Bb1), 0.5 * (hh0 + hh1)
    dI = (I1 - I0) / (2 * eps)
    dzt = (zt1 - zt0) / (2 * eps)
    dzb = (zb1 - zb0) / (2 * eps)
    return -(g / hh) * (dI - Bt * dzt + Bb * dzb)


def test_baroclinic_gradient_matches_exact_pressure_integral():
    g = 9.81
    l = np.array([0.1, 0.2, 0.3, 0.4])

    def eta_f(x):
        return 0.3 + 0.01 * np.sin(2 * np.pi * x)

    def b_f(x):
        return 0.02 * np.cos(2 * np.pi * x)

    def rho_f(x):
        x = np.atleast_1d(x)
        return np.array([0.03 + 0.005 * np.sin(2 * np.pi * x),
                         0.02 + 0.004 * np.cos(2 * np.pi * x),
                         0.01 + 0.003 * np.sin(4 * np.pi * x),
                         0.002 + 0.001 * np.cos(4 * np.pi * x)]).squeeze()

    errs = []
    for M in (64, 128, 256):
        mesh = build_mesh(0.0, 1.0, M, bathymetry=b_f)
        layout = build_layout(mesh, l)
        grid = Grid(mesh=mesh, layout=layout, params=PhysParams(g=g),
                    bounds=periodic())
        st = State(eta=eta_f(mesh.x_center), u=np.zeros((4, M + 1)),
                   rho=rho_f(mesh.x_center))
        fs = prepare_fields(st, grid, 0.0)
        got = baroclinic_gradient(fs, grid)
        exact = np.array([_exact_layer_pressure_accel(
            xx, eta_f, b_f, rho_f, l, g) for xx in mesh.x_iface]).T
        errs.append(np.max(np.abs(got - exact)))
    errs = np.array(errs)
    # frozen oracle values observed at these resolutions (second order)
    assert errs[-1] < 1e-5
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders > 1.9)


def test_baroclinic_vertical_structure_of_density_step():
    """A full-column density step under a flat surface exerts a force whose
    magnitude grows monotonically toward the bottom."""
    grid = make_grid(M=8, n_layers=6, x_max=1.0)
    st = rest_state(grid.mesh, grid.layout, eta0=0.3)
    st.rho[:, 4:] = 0.03
    fs = prepare_fields(st, grid, 0.0)
    f = baroclinic_gradient(fs, grid)[:, 4]   # interface at the step
    assert np.all(f < 0.0)                    # pushes toward the light side
    assert np.all(np.diff(np.abs(f)) < 0.0)   # strongest at the bottom


# ---------------------------------------------------------------------------
# rest states


def test_flat_bottom_rest_state_tendencies_exactly_zero():
    grid = make_grid(M=20, n_layers=5)
    st = rest_state(grid.mesh, grid.layout, eta0=0.3)
    # any per-layer-constant density profile is a steady state
    st.rho[:] = np.array([0.03, 0.02, 0.01, 0.0, 0.0])[:, None]
    tend = compute_tendencies(st, grid, 0.0)
    assert np.all(tend.d_eta == 0.0)
    assert np.all(tend.d_u_stiff == 0.0)
    assert np.all(tend.d_u_nonstiff == 0.0)
    assert np.all(tend.d_r == 0.0)


def test_variable_bottom_constant_density_rest_state():
    grid = make_grid(M=24, n_layers=4,
                     bathymetry=lambda x: 0.1 * np.exp(-20 * (x - 0.5) ** 2))
    st = rest_state(grid.mesh, grid.layout, eta0=0.4)
    st.rho[:] = 0.03
    tend = compute_tendencies(st, grid, 0.0)
    assert np.max(np.abs(tend.d_u_stiff + tend.d_u_nonstiff)) < 1e-13
    assert np.all(tend.d_eta == 0.0)


# ---------------------------------------------------------------------------
# momentum advection


def test_momentum_advection_exact_on_linear_profile():
    """With the second-order correction, u du/dx is exact for linear u."""
    grid = make_grid(M=16, n_layers=2, bounds=periodic())
    st = rest_state(grid.mesh, grid.layout, eta0=0.5)
    a, b = 0.3, 0.05
    # use a positive linear profile on an interior stretch
    st.u[:] = a + b * grid.mesh.x_iface
    fs = prepare_fields(st, grid, 0.0)
    adv = momentum_advection(fs, grid, limiter=True)
    expected = (a + b * grid.mesh.x_iface) * b
    interior = slice(3, grid.mesh.M - 2)
    assert np.allclose(adv[:, interior], expected[interior], rtol=1e-12)


def test_momentum_advection_one_sided_second_order_formula():
    grid = make_grid(M=16, n_layers=1, bounds=periodic())
    st = rest_state(grid.mesh, grid.layout, eta0=0.5)
    rng = np.random.default_rng(3)
    st.u[0, :] = 0.2 + 0.05 * rng.random(17)
    st.u[0, -1] = st.u[0, 0]
    fs = prepare_fields(st, grid, 0.0)
    adv = momentum_advection(fs, grid, limiter=False)
    u = st.u[0, :16]
    um1, um2 = np.roll(u, 1), np.roll(u, 2)
    dxh = grid.dx_half[:16]
    d1, d0 = u - um1, um1 - um2
    # all velocities positive: upstream-left stencil with curvature correction
    expected = u * (d1 + 0.5 * (d1 - d0)) / dxh
    assert np.allclose(adv[0, :16], expected, rtol=1e-12)


def advection_as_first_written(u, grid, limiter):
    """Reference for momentum_advection: u padded by hstack, the four
    stencil differences apart, one minmod per upwind direction, and the
    neighbours across a transition cell written into copies of the shifted
    arrays before differencing."""
    layout, M, periodic = grid.layout, grid.mesh.M, grid.bounds.periodic
    n = M if periodic else M + 1
    jj = np.arange(n)

    def at(j):
        return j % n if periodic else np.where((j >= 0) & (j < n), j, -1)

    trans = np.nonzero(layout.transition_cell)[0]
    first_only = np.isin(jj, at(trans)) | np.isin(jj, at(trans + 1))
    half_m = np.where(first_only | (at(jj - 2) < 0) | np.isin(jj, at(trans + 2)), 0.0, 0.5)
    half_p = np.where(first_only | (at(jj + 2) < 0) | np.isin(jj, at(trans - 1)), 0.0, 0.5)
    left, right = at(jj - 1) >= 0, at(jj + 1) >= 0
    inv_dx = 1.0 / grid.dx_half[:n]
    ends = ((u[:, n - 2:n], u[:, :2]) if periodic
            else (np.zeros((layout.n_max, 2)),) * 2)
    u_pad = np.hstack([ends[0], u[:, :n], ends[1]])
    um2, um1, ucol, up1, up2 = (u_pad[:, k:k + n].copy() for k in range(5))
    for side in layout.remap:
        fine, coarse = at(side.cell + 1 - side.side), at(side.slot_cell + side.side)
        toward_coarse, toward_fine = (um1, up1) if side.side == 0 else (up1, um1)
        toward_coarse[:, fine] = 0.0
        toward_coarse[side.layer, fine] = side.at_coarse(u)[side.parent, side.cell]
        toward_fine[:, coarse] = 0.0
        toward_fine[side.slot_layer, coarse] = side.restrict(u[side.layer, fine])
    d1, d0, e1, e2 = ucol - um1, um1 - um2, up1 - ucol, up2 - up1
    corr_m, corr_p = d1 - d0, e1 - e2

    def minmod_of(a, b):
        return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))

    if limiter:
        corr_m = np.where(right, minmod_of(corr_m, e1 - d1), corr_m)
        corr_p = np.where(left, minmod_of(corr_p, d1 - e1), corr_p)
    s_pos = (d1 + half_m * corr_m) * np.where(left, inv_dx, 0.0)
    s_neg = (e1 + half_p * corr_p) * np.where(right, inv_dx, 0.0)
    adv = ucol * np.where(ucol > 0.0, s_pos, s_neg)
    return np.concatenate([adv, adv[:, :1]], axis=1) if periodic else adv


# bounded walls, a periodic grid, both transition orientations, the tidal
# nvar4 layout with its open ends, and periodic bands whose transition sits
# at the wrap or inside
ADVECTION_GRIDS = ("lock_exchange", "periodic_viscous", "basin_242", "basin_424",
                   "tidal_nvar4", "band0", "band29")


@pytest.mark.parametrize("limiter", [False, True])
@pytest.mark.parametrize("name", ADVECTION_GRIDS)
def test_momentum_advection_is_the_stencil_as_first_written(name, limiter):
    """The shared differences, the one minmod and the patched remap columns
    give the values of the separate stencil, for random velocities with
    exact zeros and runs of equal values (zero curvatures)."""
    grid, state, t = _remap_problem(name)
    fs = prepare_fields(state, grid, t)
    rng = np.random.default_rng(11)
    for trial in range(4):
        u = np.where(rng.random(fs.u.shape) < 0.5,
                     rng.integers(-2, 3, fs.u.shape) * 0.25,
                     rng.standard_normal(fs.u.shape))
        fs.u = np.where(grid.layout.active_half(), u, 0.0)
        if grid.bounds.periodic:
            fs.u[:, -1] = fs.u[:, 0]
        got = momentum_advection(fs, grid, limiter)
        assert np.array_equal(got, advection_as_first_written(fs.u, grid, limiter)), trial


# ---------------------------------------------------------------------------
# viscous/friction coefficients


def test_viscous_coefficients_trivial_when_disabled():
    grid = make_grid(M=8, n_layers=3)
    st = rest_state(grid.mesh, grid.layout, eta0=0.4)
    fs = prepare_fields(st, grid, 0.0)
    assert viscous_coefficients(grid, fs.h_half, fs.u) is None


def test_mixing_length_viscosity_profile():
    from mlswe import WallFriction
    params = PhysParams(mixing_length=True, friction=WallFriction())
    grid = make_grid(M=8, n_layers=4, params=params)
    st = rest_state(grid.mesh, grid.layout, eta0=0.4)
    st.u[:] = 0.5
    fs = prepare_fields(st, grid, 0.0)
    A = viscous_coefficients(grid, fs.h_half, fs.u)
    # law-of-wall drag coefficient for dz_r = l_1 h: the bottom row of A
    # couples layer 0 to layer 1 (sup) and to the bed (drag)
    dz_r = 0.25 * 0.4
    cf = (0.41 / np.log(dz_r / 3.3e-5)) ** 2
    c_bot = -(A.diag[0, 4] + A.sup[0, 4]) * dz_r
    assert c_bot == pytest.approx(cf * 0.5, rel=1e-12)


def flux_form_exchange(grid, h_half, u_ref, u):
    """Reference for A u + k: the vertical viscosity/friction term in flux
    form, (K[k+1] - K[k]) / (l h) per layer, with the exchange flux
    K[k] = a_k (u_k - u_{k-1}) between live layers, the bottom drag
    K[0] = c_bot u_0 and the wind stress c_wind (u_w - u_top) above the top
    layer, all linearized about u_ref."""
    layout, p = grid.layout, grid.params
    n_max, Mp1 = layout.n_max, h_half.size
    cols = np.arange(Mp1)
    top = np.maximum(layout.n_half - 1, 0)
    act = np.arange(1, n_max)[:, None] < layout.n_half[None, :]
    nu = np.full((n_max - 1, Mp1), p.nu)
    K = np.zeros((n_max + 1, Mp1))
    if p.friction is not None:
        dz_r = layout.l_half[0, :] * h_half
        cf = (p.friction.kappa / np.log(np.maximum(dz_r / p.friction.dz0, np.e))) ** 2
        K[0] = cf * np.abs(u_ref[0, :]) * u[0, :]
        if p.mixing_length:
            u_star = np.sqrt(cf) * np.abs(u_ref[0, :])
            z = np.cumsum(layout.l_half, axis=0)[:-1, :] * h_half
            nu = nu + p.friction.kappa * u_star * z * np.maximum(1.0 - z / h_half, 0.0)
    l_v = np.where(act, 0.5 * (layout.l_half[:-1, :] + layout.l_half[1:, :]), 1.0)
    K[1:n_max] = np.where(act, nu, 0.0) / (l_v * h_half) * (u[1:, :] - u[:-1, :])
    c_wind = p.wind.c_w * np.abs(p.wind.u_w - u_ref[top, cols])
    K[layout.n_half, cols] = c_wind * (p.wind.u_w - u[top, cols])
    out = (K[1:] - K[:-1]) / (layout.l_half_safe * h_half)
    return np.where(layout.active_half(), out, 0.0)


def _exchange_grids():
    """Grids with vertical exchange: bottom drag, wind and mixing length with
    transitions (tidal nvar4) and single-layer columns (nvar1), constant
    viscosity across both transition orientations and on a periodic grid."""
    runs = reference_runs()
    grids = {name: runs[name][2:5] for name in
             ("tidal_nvar4", "basin_242", "basin_424", "periodic_viscous")}
    grid, state = build_problem(case_tidal(layout="nvar1", M=40))
    grids["tidal_nvar1"] = grid, _perturb(grid, state, 0.5, 0.2, 0.01), 3.0 * 3600.0
    return grids


@pytest.mark.parametrize("name", sorted(_exchange_grids()))
def test_viscous_exchange_is_the_flux_form(name):
    """A u + k from A's bands equals the flux form to round-off, for a u
    other than the one A is linearized about."""
    grid, state, t = _exchange_grids()[name]
    fs = prepare_fields(state, grid, t)
    A = viscous_coefficients(grid, fs.h_half, fs.u)
    u = np.where(grid.layout.active_half(),
                 np.random.default_rng(7).standard_normal(fs.u.shape), 0.0)
    want = flux_form_exchange(grid, fs.h_half, fs.u, u)
    got = spatial.viscous_exchange(u, A)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# dry states


def test_dry_state_raises():
    from mlswe import StepFailure
    grid = make_grid()
    st = rest_state(grid.mesh, grid.layout, eta0=0.4)
    st.eta[3] = -1.0
    with pytest.raises(StepFailure) as failure:
        prepare_fields(st, grid, 0.0)
    assert (failure.value.field, failure.value.layer, failure.value.column) == ("eta", None, 3)


# ---------------------------------------------------------------------------
# periodic layer-count transitions


def _band_problem(start, current, M=40, width=11, graded=False):
    """Periodic [0, 1] with 2 layers and a 4-layer band on interfaces
    start .. start+width-1 (mod M); smooth waves on a uniform current. A
    graded mesh has cell widths proportional to 1 + sin(2 pi i / M) / 2,
    with i counted from the band's first cell, so they move with it."""
    if graded:
        width_of = 1.0 + 0.5 * np.sin(2 * np.pi * ((np.arange(M) - start) % M) / M)
        x = np.concatenate([[0.0], np.cumsum(width_of)])
        mesh = build_mesh(0.0, 1.0, x_iface=x / x[-1])
    else:
        mesh = build_mesh(0.0, 1.0, M)
    fine = np.isin(np.arange(M + 1) % M, (start + np.arange(width)) % M)
    table = {False: [0.5, 0.5], True: [0.25] * 4}
    regions = [(mesh.x_iface[j] + 0.5 / M, table[fine[j]])
               for j in np.nonzero(fine[1:] != fine[:-1])[0]]
    layout = build_layout(mesh, regions + [(np.inf, table[fine[M]])])
    grid = Grid(mesh=mesh, layout=layout, params=PhysParams(), bounds=periodic())
    # the waves travel with the band: phases measured from its first interface
    xc = mesh.x_center - mesh.x_iface[start]
    xi = mesh.x_iface - mesh.x_iface[start]
    k = np.arange(layout.n_max)[:, None]
    st = rest_state(mesh, layout, eta0=1.0)
    st.eta = st.eta + 0.01 * np.sin(2 * np.pi * xc)
    u = current + 0.02 * np.sin(2 * np.pi * xi + 0.7 * k)
    u[:, M] = u[:, 0]
    st.u = np.where(layout.active_half(), u, 0.0)
    rho = 0.005 * (1.0 + np.sin(4 * np.pi * xc + 0.3 * k))
    st.rho = np.where(layout.active_int(), rho, 0.0)
    return grid, st


@pytest.mark.parametrize("current", [0.05, -0.05])
@pytest.mark.parametrize("start", [0, 1, 29, 30])
def test_periodic_transition_is_independent_of_the_cut(start, current):
    """A band whose transition cells sit at the ends of the cell range
    (cell 0 or M-1, either side coarse) evolves like the same band inside
    the domain, shifted, on a uniform mesh and on a graded one that moves
    with the band."""
    from mlswe import IMEXIntegrator

    def run(s, graded):
        grid, st = _band_problem(s, current, graded=graded)
        integ = IMEXIntegrator(grid)
        for n in range(20):
            st = integ.step(st, n * 0.002, 0.002)
        return grid, st

    for graded in (False, True):
        grid, ref = run(10, graded)
        grid_s, got = run(start, graded)
        M, shift = grid.mesh.M, start - 10
        trans = np.nonzero(grid_s.layout.transition_cell)[0]
        assert {0, M - 1} & set(trans.tolist())
        assert np.array_equal(grid_s.layout.n_int, np.roll(grid.layout.n_int, shift))
        err = max(np.max(np.abs(np.roll(ref.eta, shift) - got.eta)),
                  np.max(np.abs(np.roll(ref.u[:, :M], shift, axis=1) - got.u[:, :M])),
                  np.max(np.abs(np.roll(ref.rho, shift, axis=1) - got.rho)))
        assert err <= 1e-12, f"graded={graded}: {err:.3g}"


# ---------------------------------------------------------------------------
# boundary input checked against the layout when the grid is built


@pytest.mark.parametrize("side, cond, message", [
    ("left", Discharge(q=lambda t: 0.1, rho=lambda t: np.zeros(1)),
     r"left Discharge rho\(t\) has shape \(1,\), but the left boundary "
     r"interface has 3 layers"),
    ("right", Elevation(eta=lambda t: 0.4, rho=lambda t: np.zeros(7)),
     r"right Elevation rho\(t\) has shape \(7,\), but the right boundary "
     r"interface has 3 layers"),
    ("right", Elevation(eta=lambda t: 0.4, rho=lambda t: 0.0),
     r"right Elevation rho\(t\) has shape \(\)"),
])
def test_grid_rejects_boundary_density_of_the_wrong_length(side, cond, message):
    bounds = Boundaries(cond, Wall()) if side == "left" else Boundaries(Wall(), cond)
    with pytest.raises(ValueError, match=message):
        make_grid(bounds=bounds)


@pytest.mark.parametrize("side", ["left", "right"])
def test_boundaries_reject_an_unknown_condition(side):
    conds = ("open", Wall()) if side == "left" else (Wall(), "open")
    with pytest.raises(TypeError, match=f"{side} boundary condition 'open' is "
                       "not one of Wall, Discharge, Elevation, Periodic"):
        Boundaries(*conds)


def test_tidal_case_rejects_a_short_boundary_density_profile():
    from mlswe import build_problem, case_tidal
    spec = case_tidal("uniform")
    bounds = Boundaries(Discharge(q=spec.bounds.left.q, rho=lambda t: np.zeros(1)),
                        spec.bounds.right)
    with pytest.raises(ValueError, match="left Discharge .* has 10 layers"):
        build_problem(spec.with_options(bounds=bounds))


@pytest.mark.parametrize("layers, message", [
    ([(0.5, [0.5, 0.5]), (np.inf, [0.25] * 4)],
     r"interfaces 0 and 16, got \[0.5 0.5\] and \[0.25 0.25 0.25 0.25\]"),
    ([(0.3, [0.5, 0.5]), (0.6, [0.25, 0.25, 0.5]), (np.inf, [0.25, 0.75])],
     r"interfaces 0 and 16, got \[0.5 0.5\] and \[0.25 0.75\]"),
    ([(0.5 / 16, [0.25] * 4), (1.0 - 0.5 / 16, [0.5, 0.5]), (np.inf, [0.25] * 4)],
     "consecutive layer-count transitions across the periodic wrap"),
])
def test_grid_rejects_periodic_layouts_that_differ_at_the_wrap(layers, message):
    with pytest.raises(ValueError, match=message):
        make_grid(layers=layers, bounds=periodic())


# ---------------------------------------------------------------------------
# the operators' contract on the step-reference grids


def _contract_grids():
    """name -> (grid, state, t, limiter), one per distinct grid: uniform,
    both transition orientations, periodic and open ends."""
    runs = reference_runs()
    return {name: (grid, state, t, limiter)
            for name, (_, limiter, grid, state, t, _, _) in runs.items()
            if not name.endswith("_rk3")}


def _arrays(result) -> list:
    """The arrays of an operator's result, in order."""
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, tuple):
        return list(result)
    return [getattr(result, f.name) for f in fields(result)]


@pytest.mark.parametrize("name", sorted(_contract_grids()))
def test_operators_keep_their_contract(name):
    """Every public operator returns exact zeros off the live layers (the
    momentum tendencies off the evolved velocities), writes into none of its
    inputs and returns the same result when called again."""
    grid, state, t, limiter = _contract_grids()[name]
    layout = grid.layout
    half, cell, evolved = layout.active_half(), layout.active_int(), grid.evolved_u
    inner = np.vstack([np.zeros((1, grid.mesh.M), dtype=bool), grid.inner_interfaces])
    fs = prepare_fields(state, grid, t)
    G = spatial.mass_transfer(fs.flux, grid)
    coeffs = viscous_coefficients(grid, fs.h_half, fs.u)
    rho_g = boundary_values(state, grid, t)[2]
    carrier = 0.3 * fs.u
    inputs = [state.eta, state.u, state.rho, G, rho_g, carrier, *_arrays(fs)]
    before = [a.copy() for a in inputs]
    for a in inputs:  # a write into an input raises, even of the same values
        a.setflags(write=False)

    # operator -> (call, the live mask of each returned array or None)
    calls = {
        "prepare_fields": (
            lambda: prepare_fields(state, grid, t),
            [half if f.name in ("u", "rho_L", "rho_R", "rho_half", "flux") else None
             for f in fields(fs)]),
        "boundary_velocities": (
            lambda: spatial.boundary_velocities(state, grid, t), [half]),
        "interface_cell_scalars": (
            lambda: spatial.interface_cell_scalars(rho_g, grid), [half, half]),
        "layer_flux": (lambda: spatial.layer_flux(fs.u, fs.h_half, grid, t), [half]),
        "mass_transfer": (
            lambda: spatial.mass_transfer(fs.flux, grid), [inner]),
        "density_rhs_flux": (
            lambda: spatial.density_rhs_flux(fs.rho_half, fs.flux, grid),
            [cell]),
        "density_rhs_flux carried": (
            lambda: spatial.density_rhs_flux(
                upwind_interface(fs.rho_L, fs.rho_R, carrier), 0.3 * fs.flux, grid),
            [cell]),
        "vertical_density_term": (
            lambda: spatial.vertical_density_term(state.rho, G, grid), [cell]),
        "momentum_advection": (lambda: momentum_advection(fs, grid, limiter), [half]),
        "baroclinic_gradient": (lambda: baroclinic_gradient(fs, grid), [half]),
        "momentum_transfer_term": (
            lambda: spatial.momentum_transfer_term(fs, G, grid), [half]),
        "barotropic_gradient": (lambda: spatial.barotropic_gradient(fs, grid), [half]),
        "momentum_stiff": (lambda: spatial.momentum_stiff(fs, coeffs, grid), [evolved]),
        "momentum_nonstiff": (
            lambda: spatial.momentum_nonstiff(fs, G, grid, limiter), [evolved]),
        "density_tendency": (
            lambda: spatial.density_tendency(fs, G, state.rho, grid), [cell]),
        "compute_tendencies": (
            lambda: compute_tendencies(state, grid, t, limiter=limiter),
            [None, evolved, evolved, cell]),
    }
    if coeffs is not None:  # A, when the grid exchanges vertically
        calls["viscous_coefficients"] = (
            lambda: viscous_coefficients(grid, fs.h_half, fs.u), [half] * 4)
        calls["viscous_exchange"] = (
            lambda: spatial.viscous_exchange(fs.u, coeffs), [half])
    for op, (call, masks) in calls.items():
        first, second = _arrays(call()), _arrays(call())
        assert len(first) == len(masks), op
        for a, b, live in zip(first, second, masks):
            assert np.array_equal(a, b), op
            if live is not None:
                assert np.all(a[~live] == 0.0), op
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b), f"{op} changed an input"


def test_grid_static_data_is_read_only():
    grid = reference_runs()["tidal_nvar4"][2]
    cols = grid.advection_columns
    static = [grid.b_g, grid.db, grid.grad_factor, grid.mid_depth, grid.l_dx_half,
              grid.sum_below, grid.sum_above, grid.inner_interfaces, grid.evolved_u,
              grid.dx_half, grid.frac_below, grid.inv_l_v, *grid.top_layer,
              grid.fixed_u_columns,
              *cols]
    for a in static:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
