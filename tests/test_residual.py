import numpy as np
import pytest

from tfdw.energy import tfd_derivatives
from tfdw.errors import DegenerateStateError
from tfdw.grids import (
    Grid,
    GridSpec,
    LatticeSpec,
    Mode,
    ScalarField,
    State,
    random_smooth_field,
    translate,
)
from tfdw.jellium import JelliumParams, jellium_lattice, jellium_state
from tfdw.residual import (
    Residual,
    gauge_fit,
    normalize_state,
    residual,
    residual_system,
)

TWO_PI = 2.0 * np.pi
EIGHT_PI = 8.0 * np.pi


def poisson_row(r):
    """The full Poisson row -Lap V - 4 pi (rho - rho_b) of a Residual."""
    return -EIGHT_PI * r.values[2]


def defect_of(r):
    """The normalization defect (1/n^3) \\int rho - Z that the mean of the
    full Poisson row carries: mean = -4 pi defect / |Gamma|."""
    return -np.mean(poisson_row(r)) * r.grid.vol_cell / (4 * np.pi)


def test_jellium_state_is_exact():
    params = JelliumParams(0.6)
    lat = jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4), (2, 1, 1)))
    state = jellium_state(params, grid)
    r = residual(state, 0.0)
    assert r.norm_l2n() < 1e-13
    assert abs(defect_of(r)) < 1e-13
    for row in (r.values[0], r.values[1], poisson_row(r)):
        assert np.max(np.abs(row)) < 1e-13
    # the stored gauge is the documented multiplier value
    expected = -(5 / 3) * 0.6 ** (4 / 3) + (4 / 3) * 0.6 ** (2 / 3)
    assert state.gauge == pytest.approx(expected, rel=1e-14)


def test_source_cancellation(rng):
    # channels that carry the modulated background, nu_+ = nu_- =
    # sqrt(rho_b / 2), cancel the source: the Poisson row is only -Lap V
    lat = LatticeSpec.cubic(1.0, 2.0, [((1, 0, 0), 0.3), ((0, 1, 0), 0.2, 0.4)])
    grid = Grid(lat, GridSpec((4, 4, 4)))
    nu = np.sqrt(grid.rho_b / 2.0)
    V = random_smooth_field(grid, rng, 1.0, 1)
    V -= np.mean(V)
    state = State(ScalarField(grid, nu), ScalarField(grid, nu.copy()), ScalarField(grid, V), 0.3)
    assert np.max(np.abs(grid.laplacian(V))) > 1.0
    r = residual(state, 0.0)
    assert np.max(np.abs(poisson_row(r) + grid.laplacian(V))) < 1e-12
    assert abs(defect_of(r)) < 1e-13


def test_odd_extension_matches_plain_powers_on_positive_branch(rng):
    lat = LatticeSpec.cubic(1.0, 2.0)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    nup = 1.3 + 0.2 * random_smooth_field(grid, rng, 1.0, 1)
    assert np.all(nup > 0)
    tf, dirac = tfd_derivatives(nup, 1)
    assert np.array_equal(tf, (10 / 3) * nup ** (7 / 3))
    assert np.array_equal(dirac, -(8 / 3) * nup ** (5 / 3))
    # and the first and third derivatives stay odd across zero
    for k in (1, 3):
        assert tfd_derivatives(-2.0, k) == tuple(-d for d in tfd_derivatives(2.0, k))


def test_residual_variational_consistency(rng):
    # the residual is the L^2 gradient (up to the factor 2) of the energy
    # restricted to the spin channels; checked through the system form
    from tfdw.energy import energy_supercell

    lat = LatticeSpec.cubic(1.0, 3.0, [((1, 0, 0), 0.15)])
    grid = Grid(lat, GridSpec((4, 4, 4)))
    base = np.sqrt(lat.Z / 2)
    state = normalize_state(
        State(
            ScalarField(grid, base + 0.2 * random_smooth_field(grid, rng, 1.0, 1)),
            ScalarField(grid, base + 0.2 * random_smooth_field(grid, rng, 1.0, 1)),
            ScalarField(grid, np.zeros(grid.shape)),
            0.0,
        )
    )
    rho_b = lat.rho_b_values(grid)
    V = grid.poisson(4 * np.pi * (state.rho_values() - rho_b))
    vstate = State(state.nu_plus, state.nu_minus, ScalarField(grid, V), 0.0)
    r = residual(vstate, 0.02)

    d_plus = random_smooth_field(grid, rng, 1.0, 1)
    d_minus = random_smooth_field(grid, rng, 1.0, 1)
    nup, num = state.nu_plus.values, state.nu_minus.values
    denom = grid.inner(nup, nup) + grid.inner(num, num)
    mu = (grid.inner(d_plus, nup) + grid.inner(d_minus, num)) / denom
    d_plus, d_minus = d_plus - mu * nup, d_minus - mu * num
    pair = 2 * (grid.inner(r.values[0], d_plus) + grid.inner(r.values[1], d_minus))

    def e(t):
        s = normalize_state(
            State(
                ScalarField(grid, nup + t * d_plus),
                ScalarField(grid, num + t * d_minus),
                state.V,
                0.0,
            )
        )
        return energy_supercell(s, 0.02).total

    t = 1e-4
    fd = (e(t) - e(-t)) / (2 * t)
    assert fd == pytest.approx(pair, abs=1e-6 * max(abs(pair), 1.0))


def test_translation_equivariance(rng):
    lat = LatticeSpec.cubic(1.0, 2.0, [((1, 0, 0), 0.2)])
    grid = Grid(lat, GridSpec((4, 4, 4), (3, 1, 1)))
    base = np.sqrt(lat.Z / 2)
    nup = base + 0.15 * random_smooth_field(grid, rng, 1.0, 1, supercell_modes=True)
    num = base + 0.15 * random_smooth_field(grid, rng, 1.0, 1, supercell_modes=True)
    V = random_smooth_field(grid, rng, 0.5, 1, supercell_modes=True)
    V -= np.mean(V)
    state = normalize_state(
        State(ScalarField(grid, nup), ScalarField(grid, num), ScalarField(grid, V), -0.4)
    )
    h = ScalarField(grid, 0.04 * np.cos(TWO_PI * grid.supercell_fraction[0]))
    r = residual(state, h)

    R = (1, 0, 0)
    shifted = State(
        ScalarField(grid, translate(state.nu_plus.values, grid, R)),
        ScalarField(grid, translate(state.nu_minus.values, grid, R)),
        ScalarField(grid, translate(state.V.values, grid, R)),
        state.gauge,
    )
    h_shift = ScalarField(grid, translate(h.values, grid, R))
    r_shift = residual(shifted, h_shift)
    for a, b in zip(r_shift.values, r.values):
        assert np.max(np.abs(a - translate(b, grid, R))) < 1e-11


def test_gauge_fit_recovers_jellium_multiplier():
    params = JelliumParams(0.8)
    lat = jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    state = jellium_state(params, grid)
    stripped = State(state.nu_plus, state.nu_minus, state.V, 0.0)
    fitted = gauge_fit(stripped, 0.0)
    assert fitted == pytest.approx(-params.multiplier, rel=1e-13)


def test_gauge_fit_fixed_point(cell_solution):
    sol = cell_solution
    refit = gauge_fit(sol.state, sol.h_value)
    assert refit == pytest.approx(sol.state.gauge, abs=1e-12)


def test_gauge_fit_scaling_well_defined(rng):
    lat = LatticeSpec.cubic(1.0, 2.0)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    nup = 1.0 + 0.2 * random_smooth_field(grid, rng, 1.0, 1)
    state = State(
        ScalarField(grid, nup),
        ScalarField(grid, nup.copy()),
        ScalarField(grid, np.zeros(grid.shape)),
        0.0,
    )
    g1 = gauge_fit(state, 0.0)
    for c in (0.5, 2.0, -1.0):
        scaled = State(c * state.nu_plus, c * state.nu_minus, state.V, 0.0)
        assert np.isfinite(gauge_fit(scaled, 0.0))
    assert np.isfinite(g1)


def test_gauge_fit_degenerate():
    lat = LatticeSpec.cubic(1.0, 2.0)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    zero = State(
        ScalarField(grid, np.zeros(grid.shape)),
        ScalarField(grid, np.zeros(grid.shape)),
        ScalarField(grid, np.zeros(grid.shape)),
        0.0,
    )
    with pytest.raises(DegenerateStateError):
        gauge_fit(zero, 0.0)


def test_poisson_row_mean_handling(rng):
    # the full Poisson row -8 pi F_V keeps its mean, which is the
    # normalization defect from \int rho and Z in the documented scaling;
    # on the unit cube and on a sheared cell with a two-mode background
    sheared = LatticeSpec(
        [[1.0, 0.0, 0.0], [0.3, 0.9, 0.0], [0.1, -0.2, 1.1]],
        2.0,
        [((1, 0, 0), 0.2), Mode((0, 1, 1), 0.1, 0.7)],
    )
    for lat in (LatticeSpec.cubic(1.0, 2.0), sheared):
        grid = Grid(lat, GridSpec((4, 4, 4)))
        nup = 1.1 * np.ones(grid.shape) / np.sqrt(lat.volume)  # deliberately unnormalized
        V = random_smooth_field(grid, rng, 0.5, 1)
        state = State(
            ScalarField(grid, nup),
            ScalarField(grid, nup.copy()),
            ScalarField(grid, V - np.mean(V)),
            0.0,
        )
        r = residual(state, 0.0)
        expected_defect = grid.integrate(state.rho_values()) - lat.Z
        assert abs(expected_defect) > 0.1
        assert defect_of(r) == pytest.approx(expected_defect, rel=1e-13)
        full = poisson_row(r)
        assert np.mean(full) == pytest.approx(
            -4 * np.pi * expected_defect / lat.volume, rel=1e-12
        )


def test_residual_system_is_scaled_poisson_row(rng):
    lat = LatticeSpec.cubic(1.0, 2.0, [((1, 0, 0), 0.1)])
    grid = Grid(lat, GridSpec((4, 4, 4)))
    base = np.sqrt(lat.Z / 2)
    state = normalize_state(
        State(
            ScalarField(grid, base + 0.1 * random_smooth_field(grid, rng, 1.0, 1)),
            ScalarField(grid, base + 0.1 * random_smooth_field(grid, rng, 1.0, 1)),
            ScalarField(grid, np.zeros(grid.shape)),
            -0.2,
        )
    )
    # independent rows: the channel rows from the formula, the full
    # Poisson row -Lap V - 4 pi (rho - rho_b) with its mean
    nup, num, V = state.nu_plus.values, state.nu_minus.values, state.V.values
    veff = V + state.gauge

    def channel(nu, sign):
        lap = grid.laplacian(nu)
        return -lap + (5 / 3) * nu ** (7 / 3) - (4 / 3) * nu ** (5 / 3) + (veff + sign * 0.01) * nu

    full_poisson = -grid.laplacian(V) - 4 * np.pi * (state.rho_values() - grid.rho_b)
    r = residual(state, 0.01)
    assert isinstance(r, Residual) and r.grid is grid
    f_plus, f_minus, f_v = residual_system(state, 0.01)
    assert np.array_equal(r.values, residual_system(state, 0.01))
    assert np.max(np.abs(f_plus - channel(nup, -1))) < 1e-14
    assert np.max(np.abs(f_minus - channel(num, +1))) < 1e-14
    assert np.max(np.abs(f_v + full_poisson / (8 * np.pi))) < 1e-13


def test_normalize_state(rng):
    lat = LatticeSpec.cubic(1.0, 2.0)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    nup = 1.7 + 0.2 * random_smooth_field(grid, rng, 1.0, 1)
    state = State(
        ScalarField(grid, nup),
        ScalarField(grid, nup.copy()),
        ScalarField(grid, np.zeros(grid.shape)),
        0.0,
    )
    out = normalize_state(state)
    assert grid.integrate(out.rho_values()) / grid.n_cells == pytest.approx(lat.Z, rel=1e-14)
