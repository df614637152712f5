import numpy as np
import pytest

from tfdw import jellium
from tfdw.grids import Grid, GridSpec
from tfdw.linop import FiberOperator, LinearizedOperator


def test_symbol_matrix_at_origin():
    params = jellium.JelliumParams(1.0)
    M = jellium.symbol_matrix(params, (0.0, 0.0, 0.0))
    expected = np.array([[12 / 9, 0, 1], [0, 12 / 9, 1], [1, 1, 0]])
    assert np.allclose(M, expected, atol=1e-15)


def test_symbol_matrix_symmetric(rng):
    for _ in range(5):
        params = jellium.JelliumParams(rng.uniform(0.2, 1.5))
        xi = rng.normal(size=3)
        M = jellium.symbol_matrix(params, xi)
        assert np.array_equal(M, M.T)


def test_sdw_eigenvector():
    params = jellium.JelliumParams(0.45)
    for xi in [(0.0, 0.0, 0.0), (0.7, -0.2, 0.1)]:
        M = jellium.symbol_matrix(params, xi)
        v = np.array([1.0, -1.0, 0.0])
        lam1, _, _ = jellium.eigenvalues(params, xi)
        assert np.allclose(M @ v, lam1 * v, atol=1e-14)


def test_eigenvalues_closed_case():
    params = jellium.JelliumParams(1.0)
    lam1, lam_p, lam_m = jellium.eigenvalues(params, 0.0)
    assert lam1 == pytest.approx(4 / 3, rel=1e-15)
    assert lam_p == pytest.approx(2 / 3 + np.sqrt(22) / 3, rel=1e-14)
    assert lam_m == pytest.approx(2 / 3 - np.sqrt(22) / 3, rel=1e-14)


def symmetric_channel_product(params, xi):
    """lambda_plus * lambda_minus from the 2x2 determinant:
    -(1/8 pi) |xi|^2 (|xi|^2 + c) - 2 nu0^2, the oracle of the branches."""
    t = float(np.dot(xi, xi))
    return -t * (t + params.sdw_coefficient) / (8.0 * np.pi) - 2.0 * params.nu0**2


def test_symmetric_channel_product_identity(rng):
    for _ in range(10):
        params = jellium.JelliumParams(rng.uniform(0.15, 1.4))
        xi = rng.normal(size=3) * rng.uniform(0.0, 3.0)
        _, lam_p, lam_m = jellium.eigenvalues(params, xi)
        det = symmetric_channel_product(params, xi)
        assert lam_p * lam_m == pytest.approx(det, rel=1e-11, abs=1e-13)


def test_radical_form_matches_2x2(rng):
    # independent closed form of the symmetric-channel branches
    for _ in range(10):
        nu0 = rng.uniform(0.2, 1.2)
        params = jellium.JelliumParams(nu0)
        t = rng.uniform(0.0, 9.0)
        xi = np.array([np.sqrt(t), 0.0, 0.0])
        c = params.sdw_coefficient
        a = (8 * np.pi - 1) / (8 * np.pi) * t + c
        disc = np.sqrt(((8 * np.pi + 1) / (8 * np.pi) * t + c) ** 2 + 8 * nu0**2)
        _, lam_p, lam_m = jellium.eigenvalues(params, xi)
        assert lam_p == pytest.approx(0.5 * (a + disc), rel=1e-12)
        assert lam_m == pytest.approx(0.5 * (a - disc), rel=1e-12)


def test_large_xi_signs():
    params = jellium.JelliumParams(0.5)
    _, lam_p, lam_m = jellium.eigenvalues(params, (6.0, 0.0, 0.0))
    assert lam_m < 0 < lam_p


def test_eigenvalues_match_symbol_matrix(rng):
    for nu0 in (0.2, 0.5, 0.9, 1.3):
        params = jellium.JelliumParams(nu0)
        for t in np.linspace(0.0, 8.0, 7):
            xi = (np.sqrt(t), 0.0, 0.0)
            mine = np.sort(jellium.eigenvalues(params, xi))
            ref = np.sort(np.linalg.eigvalsh(jellium.symbol_matrix(params, xi)))
            assert np.max(np.abs(mine - ref)) < 1e-12


def test_sdw_threshold_value():
    assert jellium.sdw_threshold() == pytest.approx((2 / 5) ** 1.5, rel=1e-16)
    # the spin-channel coefficient vanishes exactly there
    params = jellium.JelliumParams(jellium.sdw_threshold())
    assert abs(params.sdw_coefficient) < 1e-15


def test_cdw_weaker_than_sdw():
    # at and above the spin threshold the charge-wave condition already holds
    for nu0 in (jellium.sdw_threshold(), 0.3, 0.6, 1.0):
        assert jellium.cdw_condition(jellium.JelliumParams(nu0))


def test_small_nu0_channel_sign():
    # as nu0 -> 0+, the zero-momentum spin eigenvalue has the sign of the
    # coefficient (negative below threshold)
    for nu0 in (0.05, 0.1, 0.2):
        params = jellium.JelliumParams(nu0)
        lam1, _, _ = jellium.eigenvalues(params, 0.0)
        assert lam1 == pytest.approx(params.sdw_coefficient, rel=1e-14)
        assert lam1 < 0


def test_threshold_bisection():
    est = jellium.sdw_threshold_bisection(0.1, 1.0, tol=1e-12)
    assert abs(est - jellium.sdw_threshold()) < 1e-10


def test_neutral_background():
    params = jellium.JelliumParams(0.5)
    assert params.rho_b_const == pytest.approx(2 * 0.25)
    lat = jellium.jellium_lattice(params)
    assert lat.Z == pytest.approx(params.rho_b_const)


def test_sweep_csv(tmp_path):
    rows = jellium.sweep_table([0.3, 0.6], [0.0, 1.0])
    jellium.write_sweep_csv(tmp_path / "sweep.csv", rows)
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "nu0,xi,lambda_1,lambda_plus,lambda_minus"
    assert len(lines) == 5


def test_numeric_fiber_reproduces_analytics():
    params = jellium.JelliumParams(0.8)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    state = jellium.jellium_state(params, grid)
    op = LinearizedOperator(state, 0.0)
    xi = np.array([0.4, 0.1, -0.3])
    numeric = np.sort(FiberOperator(op, xi).eigenvalues())
    analytic = []
    for k1, k2, k3 in zip(*(k.ravel() for k in grid.k_cart)):
        analytic.extend(jellium.eigenvalues(params, (k1 + xi[0], k2 + xi[1], k3 + xi[2])))
    assert np.max(np.abs(numeric - np.sort(analytic))) < 1e-8


def test_minimal_gap_continuous_in_nu0():
    # min |eigenvalue| over a xi line varies continuously with nu0 on the
    # stable range (no branch jumps larger than a Lipschitz-scale bound)
    xi_line = [(t, 0.0, 0.0) for t in np.linspace(0.0, 3.0, 121)]

    def min_gap(nu0):
        params = jellium.JelliumParams(nu0)
        return min(min(abs(v) for v in jellium.eigenvalues(params, xi)) for xi in xi_line)

    nu0s = np.linspace(0.1, 1.0, 46)
    gaps = np.array([min_gap(v) for v in nu0s])
    assert np.all(np.isfinite(gaps))
    assert np.max(np.abs(np.diff(gaps))) <= 5.0 * (nu0s[1] - nu0s[0])
