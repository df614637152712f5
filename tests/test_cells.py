import types

import numpy as np
import pytest

from tfdw import cells, fieldio, jellium
from tfdw.cells import (
    CellSolution,
    SolveOptions,
    _phase1_descent,
    initial_state,
    newton_polish,
    save_solution,
    solve_cell,
)
from tfdw.energy import energy_supercell
from tfdw.errors import DescentFailureError, PositivityLossError, StructuralError
from tfdw.grids import Grid, GridSpec, LatticeSpec, Mode, ScalarField, State, random_smooth_field
from tfdw.jellium import JelliumParams, jellium_lattice, jellium_state
from tfdw.linop import FiberOperator, LinearizedOperator, monkhorst_pack, stability_scan
from tfdw.residual import variational_pairing


def test_jellium_exact_constant_solution():
    params = JelliumParams(0.75)
    lat = jellium_lattice(params)
    sol = solve_cell(lat, GridSpec((4, 4, 4)), 0.0, "uniform", SolveOptions(tol=1e-12))
    assert sol.residual_norm <= 1e-12
    assert np.max(np.abs(sol.state.nu_plus.values - 0.75)) < 1e-12
    assert sol.state.gauge == pytest.approx(-params.multiplier, abs=1e-12)
    assert sol.min_nu == pytest.approx(0.75, abs=1e-12)


def test_uniform_background_solves_to_the_jellium_state():
    # rho - rho_b is roundoff on a uniform background: the energy's and the
    # Poisson solve's mean-zero checks count it against the background's
    # charge, not against its own norm
    sol = solve_cell(LatticeSpec.cubic(1.0, 3.0, []), GridSpec((8, 4, 4)))
    params = JelliumParams(np.sqrt(1.5))  # rho_b = 2 nu0^2 = 3
    exact = jellium_state(params, sol.grid)
    assert np.max(np.abs(sol.state.stacked() - exact.stacked())) <= 1e-12
    assert sol.state.gauge == pytest.approx(exact.gauge, abs=1e-12)
    # every fiber of the default scan, the 4 time-reversed corners included,
    # has the oracle's gap and inertia over its own mode window (a
    # degenerate spectrum: the symbol depends on |k + xi| alone)
    report = stability_scan(sol.state, 0.0, refine=False)
    g = sol.grid
    assert len(report.fiber_records) == 9
    for r in report.fiber_records:
        modes = np.stack([g.k_cart[a].ravel() + r.xi[a] for a in range(3)], axis=1)
        lam = np.array([jellium.eigenvalues(params, k) for k in modes])
        assert r.gap == pytest.approx(np.min(np.abs(lam)), rel=1e-12)
        assert r.n_negative == np.count_nonzero(lam < 0.0) == g.total_points


def test_modulated_solution_properties(cell_solution, lattice_mod, cell_grid):
    sol = cell_solution
    assert sol.residual_norm <= 1e-11
    # normalization holds exactly after the final retraction
    avg = cell_grid.integrate(sol.state.rho_values()) / cell_grid.n_cells
    assert avg == pytest.approx(lattice_mod.Z, rel=1e-12)
    # exchange-symmetric problem keeps the channels identical at h = 0
    assert np.max(np.abs(sol.state.nu_plus.values - sol.state.nu_minus.values)) < 1e-10
    assert sol.C_nu_ok and sol.min_nu > 1.0


def test_converged_stationarity(cell_solution, rng):
    # finite-difference derivative along a random constraint-tangent
    # direction vanishes at the solution
    from tfdw.grids import random_smooth_field
    from tfdw.residual import normalize_state

    sol = cell_solution
    grid = sol.grid
    nup, num = sol.state.nu_plus.values, sol.state.nu_minus.values
    d_plus = random_smooth_field(grid, rng, 1.0, 1)
    d_minus = random_smooth_field(grid, rng, 1.0, 1)
    denom = grid.inner(nup, nup) + grid.inner(num, num)
    mu = (grid.inner(d_plus, nup) + grid.inner(d_minus, num)) / denom
    d_plus, d_minus = d_plus - mu * nup, d_minus - mu * num
    scale = np.sqrt(grid.l2n(d_plus) ** 2 + grid.l2n(d_minus) ** 2)

    def energy_at(t):
        s = normalize_state(
            State(
                ScalarField(grid, nup + t * d_plus),
                ScalarField(grid, num + t * d_minus),
                sol.state.V,
                0.0,
            )
        )
        return energy_supercell(s, sol.h_value).total

    t = 1e-5
    fd = (energy_at(t) - energy_at(-t)) / (2 * t)
    assert abs(fd) <= 1e-6 * scale


def test_phase1_energy_monotone(lattice_mod, cell_grid):
    opts = SolveOptions(seed=5, perturbation=5e-2)
    start = initial_state(lattice_mod, cell_grid, "perturbed", opts.seed, opts.perturbation)
    _, iters, trace = _phase1_descent(start, 0.0, opts)
    assert iters >= 1
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-13 * np.maximum(np.abs(trace[:-1]), 1.0))


def test_phase1_energy_increase_raises_with_trace(lattice_mod, cell_grid, monkeypatch):
    # the accepted step's retracted state, evaluated again right after the
    # line search, reads 10 higher: the descent stops with a typed error
    # that carries the energy trace up to the increase
    energy = cells.energy_supercell
    seen = []

    def bumped(state, h):
        total = energy(state, h).total
        nu = state.nu_plus.values
        if seen and np.allclose(nu, seen[-1], rtol=1e-12, atol=0.0):
            total += 10.0
        seen.append(nu.copy())
        return types.SimpleNamespace(total=total)

    monkeypatch.setattr(cells, "energy_supercell", bumped)
    opts = SolveOptions(seed=5, perturbation=5e-2)
    start = initial_state(lattice_mod, cell_grid, "perturbed", opts.seed, opts.perturbation)
    with pytest.raises(DescentFailureError, match="energy increased at iteration 1") as err:
        _phase1_descent(start, 0.0, opts)
    trace = err.value.energy_trace
    assert len(trace) == 2
    assert trace[0] == energy(start, 0.0).total
    assert trace[1] > trace[0] + 5.0


def test_phase1_stagnation_names_the_field(lattice_mod, cell_grid):
    # at h = 1e150 the projected gradient (3.5e150) is finite, but no step
    # of the line search lowers the energy: the descent stops naming h,
    # with the finite energy trace up to the stop
    with pytest.raises(DescentFailureError, match="descent stagnated") as err:
        solve_cell(lattice_mod, cell_grid, 1e150)
    assert "h = 1.000e+150" in str(err.value)
    trace = err.value.energy_trace
    assert trace and all(np.isfinite(trace))


def test_newton_superlinear_decay(cell_solution):
    hist = [r for r in cell_solution.newton_residuals if r > 0]
    # once below 1e-4 the decay is at least quadratic-ish per step
    below = [r for r in hist if r < 1e-4]
    for a, b in zip(below, below[1:]):
        if a > 1e-13:
            assert b <= 50.0 * a**1.5


def test_positivity_guard(lattice_mod, cell_grid, cell_solution):
    opts = SolveOptions(nu_floor=10.0)  # absurd floor: first step must trip
    with pytest.raises(PositivityLossError):
        newton_polish(cell_solution.state, 0.5, opts)


def test_grid_refinement_stability(lattice_mod, cell_solution):
    fine = solve_cell(lattice_mod, GridSpec((16, 4, 4)), 0.0, "uniform", SolveOptions())
    e_coarse = cell_solution.energy.total
    e_fine = fine.energy.total
    assert abs(e_fine - e_coarse) <= 1e-8 * abs(e_fine)


def test_cell_solution_is_certified_stable(cell_solution):
    report = stability_scan(
        cell_solution.state,
        cell_solution.h_value,
        xi_grid=monkhorst_pack(cell_solution.grid.lattice, (2, 2, 2)),
        refine=False,
    )
    assert report.classification == "stable"
    assert np.isfinite(report.M) and report.M > 0


def test_perturbed_preset_reaches_same_ground_state(lattice_mod, cell_grid, cell_solution):
    sol2 = solve_cell(
        lattice_mod, cell_grid, 0.0, "perturbed", SolveOptions(seed=11, perturbation=1e-3)
    )
    assert abs(sol2.energy.total - cell_solution.energy.total) < 1e-9
    assert np.max(np.abs(sol2.state.nu_plus.values - cell_solution.state.nu_plus.values)) < 1e-7


def test_solution_persistence(tmp_path, cell_solution):
    save_solution(tmp_path, "sol", cell_solution)
    state, manifest = fieldio.read_state(tmp_path, "sol")
    assert manifest["residual_norm"] == cell_solution.residual_norm
    assert manifest["energy"]["total"] == cell_solution.energy.total
    assert np.array_equal(state.nu_plus.values, cell_solution.state.nu_plus.values)
    assert state.gauge == cell_solution.state.gauge


def test_constant_field_splits_channels(lattice_mod, cell_grid):
    sol = solve_cell(lattice_mod, cell_grid, 0.05, "uniform", SolveOptions())
    m_tot = cell_grid.integrate(sol.state.m_values())
    assert m_tot > 1e-3  # positive field favors the spin-up channel
    assert sol.residual_norm <= 1e-11


def test_unknown_init_preset_is_structural(lattice_mod, cell_grid):
    with pytest.raises(StructuralError, match="unknown init preset 'checkerboard'"):
        initial_state(lattice_mod, cell_grid, "checkerboard")


def test_newton_polish_evaluates_the_residual_once_per_iterate(cell_solution, rng, residual_calls):
    # the start, one per step and one after the gauge refit: the stopping
    # norm and the right-hand side come from the same evaluation
    state = cell_solution.state
    bump = 1.0 + 1e-3 * random_smooth_field(state.grid, rng, 1.0, 1)
    nu_plus = ScalarField(state.grid, bump * state.nu_plus.values)
    start = State(nu_plus, state.nu_minus, state.V, state.gauge)
    _, res_norm, iterations, history = newton_polish(start, cell_solution.h_value, SolveOptions())
    assert iterations >= 2
    assert residual_calls == {"residual": 0, "residual_system": iterations + 2}
    assert len(history) == iterations + 2 and history[-1] == res_norm


@pytest.mark.parametrize("solve", ["far field", "no contraction"])
def test_chord_polish_relinearizes_when_a_step_fails_to_halve(solve, cb_table, cell_solution, monkeypatch):
    # the corrector at h = 0 starts from the h = 0.1 sample, handed either
    # that sample's own Gamma factors or a solve that does not move the
    # iterate: the first step fails to halve the residual, and the corrector
    # factors at its iterate after that step and after every other step that
    # fails to halve it (bar the last), and nowhere else
    far = cb_table.solutions[-1]
    assert far.h_value == 0.1
    if solve == "far field":
        solve = LinearizedOperator(far.state, far.h_value).gamma.solver()
    else:
        solve = np.zeros_like
    factored = []
    factor = FiberOperator.factor
    monkeypatch.setattr(FiberOperator, "factor", lambda self: factored.append(1) or factor(self))
    state, res_norm, iterations, history = newton_polish(far.state, 0.0, SolveOptions(), solve=solve)
    stalls = [b > 0.5 * a for a, b in zip(history[: iterations - 1], history[1:iterations])]
    assert stalls[0] and len(factored) == sum(stalls)
    assert history[-3] <= 0.1 * SolveOptions().tol and res_norm <= SolveOptions().tol
    ref = cell_solution.state.stacked()
    assert np.max(np.abs(state.stacked() - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("lattice", ["workhorse", "sheared"])
def test_solve_cell_is_translation_covariant(lattice, lattice_mod):
    # shifting every background mode's phase by one grid step along the
    # first lattice vector rolls the solution by one grid point
    if lattice == "workhorse":
        lat, resolution = lattice_mod, (8, 4, 4)
    else:
        lat = LatticeSpec(
            [[1.0, 0.0, 0.0], [0.3, 0.9, 0.0], [0.1, -0.2, 1.1]],
            2.0,
            [((1, 0, 0), 0.2), Mode((2, -1, 1), 0.1, 0.7)],
        )
        resolution = (6, 4, 4)
    step = 2.0 * np.pi / resolution[0]
    shifted = LatticeSpec(
        lat.cell_vectors,
        lat.Z,
        [Mode(m.m, m.amp, m.phase - step * m.m[0]) for m in lat.rho_b_modes],
    )
    base = solve_cell(lat, GridSpec(resolution), 0.01)
    moved = solve_cell(shifted, GridSpec(resolution), 0.01)
    rolled = np.roll(base.state.stacked(), 1, axis=1)
    assert np.max(np.abs(moved.state.stacked() - rolled)) <= 1e-9
    assert moved.state.gauge == pytest.approx(base.state.gauge, abs=1e-9)
    assert moved.energy.total == pytest.approx(base.energy.total, rel=1e-10)
