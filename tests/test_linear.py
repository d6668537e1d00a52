import numpy as np
import pytest

from mlswe import (LinearModel, assemble_A, characteristic_residual,
                   hyperbolicity_check, spectrum)


def naive_two_layer_matrix(H, U, rho, l, g):
    """Independent element-by-element assembly for N=2, written directly
    from the block definitions without any vectorized shortcuts."""
    N = 2
    Ubar = l[0] * U[0] + l[1] * U[1]
    dU = [U[0] - Ubar, U[1] - Ubar]
    dUbar = [l[0] * dU[0], l[0] * dU[0] + l[1] * dU[1]]
    cum = [l[0], l[0] + l[1]]

    def Mel(a, c):
        return l[c] * (1.0 - cum[a]) if c <= a else -l[c] * cum[a]

    dU_mid = (U[1] - U[0])
    dR_mid = (rho[1] - rho[0])
    # layer 0 sees only its upper interface, layer 1 only its lower one
    d_up = [dU_mid / (2 * H * l[0]), 0.0]
    d_dn = [0.0, dU_mid / (2 * H * l[1])]
    d_upR = [dR_mid / (2 * H * l[0]), 0.0]
    d_dnR = [0.0, dR_mid / (2 * H * l[1])]

    v = [-(d_up[0] * dUbar[0]), -(d_dn[1] * dUbar[0])]
    v_rho = [-(d_upR[0] * dUbar[0]), -(d_dnR[1] * dUbar[0])]
    W = [[-(d_up[0] * Mel(0, c)) for c in range(N)],
         [-(d_dn[1] * Mel(0, c)) for c in range(N)]]
    W_rho = [[-(d_upR[0] * Mel(0, c)) for c in range(N)],
             [-(d_dnR[1] * Mel(0, c)) for c in range(N)]]
    r = [rho[0] + l[1] * (rho[1] - rho[0]), rho[1]]
    s = [1.0 + r[a] + v[a] for a in range(N)]

    A = np.zeros((5, 5))
    A[0, 0] = Ubar
    A[0, 1], A[0, 2] = H * l[0], H * l[1]
    for a in range(N):
        A[1 + a, 0] = g * s[a]
        for c in range(N):
            A[1 + a, 1 + c] = (U[a] if a == c else 0.0) + H * W[a][c]
        A[3 + a, 0] = v_rho[a]
        for c in range(N):
            A[3 + a, 1 + c] = H * W_rho[a][c]
        A[3 + a, 3 + a] = U[a]
    A[1, 3], A[1, 4] = g * H * l[0] / 2, g * H * l[1]
    A[2, 4] = g * H * l[1] / 2
    return A


def test_matrix_matches_naive_two_layer_assembly():
    model = LinearModel(H=2.0, U=np.array([0.3, -0.1]),
                        rho=np.array([0.03, 0.01]), l=np.array([0.4, 0.6]))
    got = assemble_A(model).A
    ref = naive_two_layer_matrix(2.0, [0.3, -0.1], [0.03, 0.01], [0.4, 0.6],
                                 9.81)
    assert np.allclose(got, ref, atol=1e-14)


def test_transfer_weight_rows_sum_to_zero():
    rng = np.random.default_rng(11)
    l = rng.random(6)
    l /= l.sum()
    model = LinearModel(H=3.0, U=rng.standard_normal(6),
                        rho=np.zeros(6), l=l)
    asm = assemble_A(model)
    assert np.allclose(np.sum(asm.M, axis=1), 0.0, atol=1e-14)


@pytest.mark.parametrize("N", [1, 2, 5, 20])
def test_closed_form_spectrum_constant_background(N, rng):
    """Constant U and constant density: two gravity modes U +- sqrt(g(1+rho)H)
    and U with multiplicity 2N-1."""
    l = rng.random(N)
    l /= l.sum()
    U0, rho0, H, g = 0.37, 0.02, 1.7, 9.81
    model = LinearModel(H=H, U=np.full(N, U0), rho=np.full(N, rho0), l=l, g=g)
    lam = spectrum(assemble_A(model))
    c = np.sqrt(g * (1.0 + rho0) * H)
    expected = np.sort(np.concatenate([[U0 - c, U0 + c], np.full(2 * N - 1, U0)]))
    assert np.max(np.abs(np.sort(lam.real) - expected)) < 1e-10
    assert np.max(np.abs(lam.imag)) < 1e-10


def test_mild_shear_stays_hyperbolic():
    model = LinearModel(H=1.0, U=np.array([0.1, -0.1]),
                        rho=np.zeros(2), l=np.array([0.5, 0.5]))
    ok, _ = hyperbolicity_check(assemble_A(model))
    assert ok


def test_characteristic_residual_exact_cases():
    g, H = 9.81, 1.0
    # N = 1: the factored quadratic is the exact characteristic polynomial
    m1 = LinearModel(H=H, U=np.array([0.3]), rho=np.zeros(1),
                     l=np.array([1.0]), g=g)
    assert characteristic_residual(assemble_A(m1)) < 1e-10
    # constant velocity, any layering: also exact
    rng = np.random.default_rng(5)
    l = rng.random(5)
    l /= l.sum()
    mc = LinearModel(H=H, U=np.full(5, 0.4), rho=np.zeros(5), l=l, g=g)
    assert characteristic_residual(assemble_A(mc)) < 1e-10


def test_characteristic_residual_linear_in_shear():
    """The factored relation drops a rank-one coupling, so its residual
    grows linearly with the velocity contrast; it is a valid cross-check
    only near a constant profile."""
    g, H = 9.81, 1.0
    res = []
    for du in (1e-2, 1e-4, 1e-6, 1e-8):
        m = LinearModel(H=H, U=np.array([du / 2, -du / 2]), rho=np.zeros(2),
                        l=np.array([0.5, 0.5]), g=g)
        res.append(characteristic_residual(assemble_A(m)))
    ratios = np.array(res[:-1]) / np.array(res[1:])
    assert np.all(np.abs(ratios - 100.0) < 5.0)  # linear scaling per decade
    assert res[-1] < 1e-8 * g * H


def test_two_layer_shear_never_loses_hyperbolicity():
    """For N=2 the transfer-coupling block U+HW has discriminant
    (3*dU/2)^2 - l1*l2*dU^2 >= 2*dU^2, so its eigenvalues are always real,
    and the assembled matrix stays hyperbolic for any velocity contrast."""
    g, H = 9.81, 1.0
    rng = np.random.default_rng(3)
    for _ in range(200):
        U = rng.standard_normal(2) * 10.0
        l = rng.random(2)
        l /= l.sum()
        ok, max_im = hyperbolicity_check(assemble_A(
            LinearModel(H=H, U=U, rho=np.zeros(2), l=l, g=g)))
        assert ok and max_im == 0.0


def test_shear_across_thin_layer_loses_hyperbolicity():
    """Transfer coupling scales as dU/(2*H*l), so a velocity jump across a
    thin middle layer produces complex eigenvalues (three or more layers)."""
    g, H = 9.81, 1.0
    l = np.array([0.45, 0.1, 0.45])
    found = False
    for du in np.linspace(0.0, 2.0, 41):
        model = LinearModel(H=H, U=du * np.array([-0.5, 0.0, 0.5]),
                            rho=np.zeros(3), l=l, g=g)
        ok, max_im = hyperbolicity_check(assemble_A(model))
        if not ok and max_im > 1e-3 * np.sqrt(g * H):
            found = True
    assert found


def test_complex_eigenvalues_come_in_conjugate_pairs():
    model = LinearModel(H=1.0, U=np.array([4.0, -4.0]),
                        rho=np.zeros(2), l=np.array([0.5, 0.5]))
    lam = spectrum(assemble_A(model))
    lam_c = np.sort_complex(np.conj(lam))
    assert np.allclose(np.sort_complex(lam), lam_c, atol=1e-10)


def test_model_validation():
    with pytest.raises(ValueError):
        LinearModel(H=-1.0, U=[0.0], rho=[0.0], l=[1.0])
    with pytest.raises(ValueError):
        LinearModel(H=1.0, U=[0.0], rho=[0.0], l=[0.5])
    with pytest.raises(ValueError):
        LinearModel(H=1.0, U=[0.0, 0.0], rho=[0.0], l=[1.0])


@pytest.mark.parametrize("bad, match", [
    ({"l": [1.0, 0.0]}, "layer fractions must be positive"),
    ({"l": [1.2, -0.2]}, "layer fractions must be positive"),
    ({"g": -9.81}, "g must be positive"),
    ({"g": 0.0}, "g must be positive"),
    ({"H": 0.0}, "H must be positive"),
    ({"H": float("nan")}, "H must be positive"),
    ({"U": [float("nan"), 0.2]}, "U must be finite"),
    ({"rho": [0.0, float("inf")]}, "rho must be finite"),
])
def test_model_refuses_non_positive_fractions_depth_and_gravity(bad, match):
    """A zero fraction used to divide by zero in `assemble_A`, a negative g
    gave a spectrum and a NaN velocity reached numpy's eigenvalue solver;
    the model now refuses them when built."""
    kw = {"H": 1.0, "U": [0.2, 0.2], "rho": [0.0, 0.0], "l": [0.5, 0.5], "g": 9.81, **bad}
    with pytest.raises(ValueError, match=match):
        LinearModel(**kw)
