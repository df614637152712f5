
import numpy as np
import pytest

from tfdw.energy import COULOMB_MEAN_TOL, energy_supercell, zeeman_coupling
from tfdw.errors import SolvabilityError
from tfdw.grids import (
    Grid,
    GridSpec,
    LatticeSpec,
    ScalarField,
    State,
    constant_field,
    random_smooth_field,
    translate,
)
from tfdw.jellium import JelliumParams, jellium_lattice, jellium_state
from tfdw.residual import normalize_state, variational_pairing

TWO_PI = 2.0 * np.pi


def make_state(grid, nup, num, gauge=0.0):
    return State(
        ScalarField(grid, nup),
        ScalarField(grid, num),
        ScalarField(grid, np.zeros(grid.shape)),
        gauge,
    )


def random_normalized_state(lattice, grid, rng, amp=0.25, kmax=1):
    base = np.sqrt(lattice.Z / (2.0 * lattice.volume))
    nup = base + amp * random_smooth_field(grid, rng, 1.0, kmax)
    num = base + amp * random_smooth_field(grid, rng, 1.0, kmax)
    return normalize_state(make_state(grid, nup, num))


def test_jellium_constants_breakdown():
    params = JelliumParams(0.7)
    lat = jellium_lattice(params)
    for supercell in [(1, 1, 1), (2, 1, 1)]:
        grid = Grid(lat, GridSpec((4, 4, 4), supercell))
        state = jellium_state(params, grid)
        # V can be any constant without changing the energy
        state = State(state.nu_plus, state.nu_minus, state.V, gauge=1.234)
        e = energy_supercell(state, 0.0)
        vol = grid.vol_supercell
        assert e.weizsacker == 0.0
        assert abs(e.coulomb) < 1e-14
        assert abs(e.thomas_fermi - 2 * 0.7 ** (10 / 3) * vol) < 1e-13
        assert abs(e.dirac + 2 * 0.7 ** (8 / 3) * vol) < 1e-13
        assert e.zeeman == 0.0


def test_empty_spin_channel():
    lat = LatticeSpec.cubic(1.0, 1.0)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    nup = np.sqrt(lat.Z / lat.volume) * np.ones(grid.shape)
    state = make_state(grid, nup, np.zeros(grid.shape))
    e = energy_supercell(state, 0.0)
    # all spin-down contributions vanish
    assert abs(e.thomas_fermi - grid.integrate(nup ** (10 / 3))) < 1e-13
    assert abs(e.dirac + grid.integrate(nup ** (8 / 3))) < 1e-13


def test_energy_against_independent_oracle(rng):
    # oracle: plain quadrature sums for the local terms, real-space gradient
    # quadrature for the kinetic piece and the direct Poisson pairing for the
    # Coulomb piece (band-limited field, so both routes agree)
    lat = LatticeSpec.cubic(1.0, 2.0, [((1, 0, 0), 0.2)])
    grid = Grid(lat, GridSpec((8, 8, 8)))
    state = random_normalized_state(lat, grid, rng, kmax=2)
    e = energy_supercell(state, 0.0)

    w = grid.w_quad
    nup = state.nu_plus.values
    num = state.nu_minus.values
    tf = w * np.sum(np.abs(nup) ** (10 / 3) + np.abs(num) ** (10 / 3))
    dirac = -w * np.sum(np.abs(nup) ** (8 / 3) + np.abs(num) ** (8 / 3))
    weiz = 0.0
    for f in (nup, num):
        for d in grid.gradient(f):
            weiz += w * np.sum(d * d)
    src = state.rho_values() - lat.rho_b_values(grid)
    src -= np.mean(src)
    V = grid.poisson(4 * np.pi * src)
    coulomb = 0.5 * w * np.sum(V * src)

    assert e.thomas_fermi == pytest.approx(tf, rel=1e-12)
    assert e.dirac == pytest.approx(dirac, rel=1e-12)
    assert e.weizsacker == pytest.approx(weiz, rel=1e-11)
    assert e.coulomb == pytest.approx(coulomb, rel=1e-11)


def test_breakdown_signs_and_total(rng):
    lat = LatticeSpec.cubic(1.0, 2.0, [((1, 0, 0), 0.2)])
    grid = Grid(lat, GridSpec((4, 4, 4)))
    state = random_normalized_state(lat, grid, rng)
    e = energy_supercell(state, 0.05)
    assert e.thomas_fermi >= 0 and e.weizsacker >= 0
    assert e.dirac <= 0 and e.coulomb >= 0
    parts = e.thomas_fermi + e.weizsacker + e.dirac + e.coulomb + e.zeeman
    assert e.total == pytest.approx(parts, rel=1e-12)
    payload = e.as_dict()
    assert set(payload) == {"thomas_fermi", "weizsacker", "dirac", "coulomb", "zeeman", "total"}
    assert payload["total"] == e.total


def test_coulomb_mean_violation():
    # a charged state raises with its mean and the tolerance, which scales
    # with the background's charge; the roundoff left by a neutral uniform
    # state passes
    lat = LatticeSpec.cubic(1.0, 1.0)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    state = make_state(grid, np.ones(grid.shape), np.ones(grid.shape))  # rho = 2 != 1
    with pytest.raises(SolvabilityError) as err:
        energy_supercell(state, 0.0)
    assert err.value.diagnostics() == {"mean": pytest.approx(1.0), "tolerance": COULOMB_MEAN_TOL}
    params = JelliumParams(np.sqrt(1.5))
    uniform = Grid(jellium_lattice(params), GridSpec((8, 4, 4)))
    energy_supercell(jellium_state(params, uniform), 0.0)


def test_zeeman_zero_magnetization(rng):
    lat = LatticeSpec.cubic(1.0, 2.0)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    nup = 1.0 + 0.2 * random_smooth_field(grid, rng, 1.0, 1)
    state = make_state(grid, nup, nup.copy())
    h = ScalarField(grid, random_smooth_field(grid, rng, 1.0, 1))
    assert zeeman_coupling(state, h) == 0.0


def test_zeeman_constant_field(rng):
    lat = LatticeSpec.cubic(1.0, 2.0)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    nup = 1.0 + 0.1 * random_smooth_field(grid, rng, 1.0, 1)
    num = 1.0 + 0.1 * random_smooth_field(grid, rng, 1.0, 1)
    state = make_state(grid, nup, num)
    m_tot = grid.integrate(state.m_values())
    assert zeeman_coupling(state, 0.7) == pytest.approx(-0.7 * m_tot, rel=1e-13)


def test_zeeman_cosine_overlap():
    # h = m = cos(2 pi x1 / n) on the n-supercell: -int h m = -|nGamma|/2
    lat = LatticeSpec.cubic(1.0, 2.0)
    n = 3
    grid = Grid(lat, GridSpec((4, 4, 4), (n, 1, 1)))
    c = np.cos(TWO_PI * grid.supercell_fraction[0])
    nup = np.sqrt(1.0 + 0.5 * c)
    num = np.sqrt(1.0 - 0.5 * c)
    state = make_state(grid, nup, num)
    h = ScalarField(grid, c)
    # oracle quadrature
    oracle = -grid.w_quad * np.sum(c * (nup**2 - num**2))
    val = zeeman_coupling(state, h)
    assert val == pytest.approx(oracle, rel=1e-13)
    assert val == pytest.approx(-grid.vol_supercell / 2, rel=1e-12)


def test_energy_translation_invariance(rng):
    lat = LatticeSpec.cubic(1.0, 2.0, [((1, 0, 0), 0.2)])
    grid = Grid(lat, GridSpec((4, 4, 4), (3, 1, 1)))
    state = random_normalized_state(lat, grid, rng)
    h = ScalarField(grid, 0.05 * np.cos(TWO_PI * grid.supercell_fraction[0]))
    e0 = energy_supercell(state, h).total
    shifted = State(
        ScalarField(grid, translate(state.nu_plus.values, grid, (1, 0, 0))),
        ScalarField(grid, translate(state.nu_minus.values, grid, (1, 0, 0))),
        state.V,
        0.0,
    )
    h_shift = ScalarField(grid, translate(h.values, grid, (1, 0, 0)))
    e1 = energy_supercell(shifted, h_shift).total
    assert abs(e0 - e1) < 1e-10 * max(abs(e0), 1.0)


def test_directional_derivative_matches_pairing(rng):
    # centered finite differences of the energy along a constraint-tangent
    # direction match the residual pairing at second order
    lat = LatticeSpec.cubic(1.0, 3.0, [((1, 0, 0), 0.15)])
    grid = Grid(lat, GridSpec((4, 4, 4)))
    state = random_normalized_state(lat, grid, rng, amp=0.15)
    h_value = 0.03

    d_plus = random_smooth_field(grid, rng, 1.0, 2)
    d_minus = random_smooth_field(grid, rng, 1.0, 2)
    nup, num = state.nu_plus.values, state.nu_minus.values
    denom = grid.inner(nup, nup) + grid.inner(num, num)
    mu = (grid.inner(d_plus, nup) + grid.inner(d_minus, num)) / denom
    d_plus, d_minus = d_plus - mu * nup, d_minus - mu * num

    vstate = State(
        state.nu_plus,
        state.nu_minus,
        ScalarField(grid, grid.poisson(4 * np.pi * (state.rho_values() - lat.rho_b_values(grid)))),
        0.0,
    )
    pairing = variational_pairing(vstate, d_plus, d_minus, h_value)

    def energy_at(t):
        s = normalize_state(
            State(
                ScalarField(grid, nup + t * d_plus),
                ScalarField(grid, num + t * d_minus),
                state.V,
                0.0,
            )
        )
        return energy_supercell(s, h_value).total

    errs = []
    ts = [0.02, 0.01, 0.005]
    for t in ts:
        fd = (energy_at(t) - energy_at(-t)) / (2 * t)
        errs.append(abs(fd - pairing))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    for s in slopes:
        assert 1.8 <= s <= 2.2
