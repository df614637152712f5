import json
import warnings

import numpy as np
import pytest

from test_grids import _CountingFFT
from tfdw import cauchy_born as cb
from tfdw import twoscale as ts
from tfdw import newton
from tfdw.errors import EigensolverError, LinearSolveError
from tfdw.grids import Grid, GridSpec, HField, ScalarField, State, random_smooth_field
from tfdw.linop import LinearizedOperator, spectral_gap
from tfdw.newton import (
    NewtonOptions,
    newton_solve,
    state_distance,
)
from tfdw.residual import gauge_fit, residual


@pytest.fixture(scope="module")
def sweep_point(cb_table):
    """One supercell problem: n = 6 with the standard modulated field."""
    n = 6
    grid = Grid(cb_table.lattice, GridSpec((8, 4, 4), (n, 1, 1)))
    h = HField(0.0, [((1, 0, 0), 0.08)])
    u0, _ = ts.build_u0(cb_table, h, grid)
    h_vals = h.sample(grid)
    return grid, u0, h_vals


def test_fixed_point_zero_iterations(cb_table):
    grid = Grid(cb_table.lattice, GridSpec((8, 4, 4), (2, 1, 1)))
    h = HField(0.05)
    u0, _ = ts.build_u0(cb_table, h, grid)
    h_vals = h.sample(grid)
    u_star, trace = newton_solve(u0, h_vals, NewtonOptions(tol=1e-9))
    assert trace.converged
    assert trace.increments == []
    assert trace.contraction_ratios == []
    assert np.array_equal(u_star.nu_plus.values, u0.nu_plus.values)
    assert u_star.gauge == u0.gauge
    assert trace.distance_to_u0 == 0.0


def test_convergence_and_contraction(sweep_point):
    grid, u0, h_vals = sweep_point
    u_star, trace = newton_solve(u0, h_vals, NewtonOptions(tol=1e-10))
    assert trace.converged
    assert trace.iterates[-1] <= 1e-10
    assert len(trace.increments) >= 2
    assert trace.contraction_max <= 0.5
    # increments decrease geometrically
    assert all(r <= 0.5 for r in trace.contraction_ratios)


def test_preconditioned_minres_iterations(sweep_point):
    # the mean-coefficient |L_bar|^{-1} preconditioner with forcing terms
    # takes 21 MINRES steps over the whole solve; every inner solve at the
    # floor target took 29, and the inverse-Helmholtz preconditioner 71
    grid, u0, h_vals = sweep_point
    _, trace = newton_solve(u0, h_vals, NewtonOptions())
    assert trace.converged
    assert sum(trace.inner_iterations) <= 24


def test_forcing_terms_only_save_inner_steps(sweep_point, monkeypatch):
    # with both forcing constants at 0 every inner solve aims for the floor,
    # inner_factor * tol in the averaged norm; the forced run reaches the
    # same solution in fewer MINRES steps
    grid, u0, h_vals = sweep_point
    opts = NewtonOptions(tol=1e-10)
    forced, trace = newton_solve(u0, h_vals, opts)
    first = newton.FORCING_FIRST
    monkeypatch.setattr(newton, "FORCING_FIRST", 0.0)
    monkeypatch.setattr(newton, "FORCING_MAX", 0.0)
    floor, floor_trace = newton_solve(u0, h_vals, opts)
    assert trace.converged and floor_trace.converged
    assert state_distance(forced, floor) <= 1e-9
    assert sum(trace.inner_iterations) < sum(floor_trace.inner_iterations)
    # the first step is where the floor over-solves: 3e-11 relative at n = 6
    assert trace.inner_rtols[0] == first
    assert floor_trace.inner_rtols[0] < 1e-3 * first


def test_stalled_inner_solve_raises(sweep_point, monkeypatch):
    # one MINRES step per solve (and per retry) cannot reach the first
    # step's target: the error carries the gap of the frozen operator
    minres = newton.minres

    def one_step(*args, **kwargs):
        return minres(*args, **{**kwargs, "maxiter": 1})

    monkeypatch.setattr(newton, "minres", one_step)
    grid, u0, h_vals = sweep_point
    with pytest.raises(LinearSolveError) as err:
        newton_solve(u0, h_vals, NewtonOptions(check_gap=True))
    assert "inner MINRES solve stalled" in str(err.value)
    assert set(err.value.diagnostics()) == {"gap_estimate"}
    gap = spectral_gap(LinearizedOperator(u0, h_vals))
    assert err.value.gap_estimate == pytest.approx(gap, rel=1e-12)
    with pytest.raises(LinearSolveError) as err:
        newton_solve(u0, h_vals, NewtonOptions())
    assert err.value.gap_estimate is None


def test_inner_solve_makes_one_transform_pair_per_step(sweep_point, monkeypatch):
    # MINRES runs on the half-spectrum coordinates: A_y makes one inverse
    # and one forward transform, M_y none.  Per outer step, the residual's
    # Laplacian (2), the map of the residual (1), the achieved-residual
    # check (2) and the map back of the step (1); per solve, the first
    # residual (2), the gauge fit (2), its residual (2) and two distances
    from tfdw import grids

    counter = _CountingFFT(grids.sfft)
    monkeypatch.setattr(grids, "sfft", counter)
    grid, u0, h_vals = sweep_point
    _, trace = newton_solve(u0, h_vals, NewtonOptions(), u_cb=u0)
    assert trace.converged
    steps, outer = sum(trace.inner_iterations), len(trace.increments)
    assert steps > 2 * outer
    assert len(counter.calls) <= 2 * steps + 6 * outer + 8


def test_fixed_point_property(sweep_point):
    grid, u0, h_vals = sweep_point
    u_star, _ = newton_solve(u0, h_vals, NewtonOptions(tol=1e-10))
    again, trace = newton_solve(u_star, h_vals, NewtonOptions(tol=1e-9))
    assert trace.increments == []  # terminates immediately
    assert state_distance(again, u_star) == 0.0


def test_gauge_consistency(sweep_point):
    grid, u0, h_vals = sweep_point
    u_star, trace = newton_solve(u0, h_vals, NewtonOptions(tol=1e-10))
    refit = gauge_fit(u_star, h_vals)
    res_before = residual(u_star, h_vals).norm_l2n()
    refitted = State(u_star.nu_plus, u_star.nu_minus, u_star.V, refit)
    res_after = residual(refitted, h_vals).norm_l2n()
    assert abs(res_after - res_before) < 1e-12


def test_local_uniqueness(sweep_point, rng):
    grid, u0, h_vals = sweep_point
    results = []
    for k in range(2):
        pert = 1e-6 * random_smooth_field(grid, rng, 1.0, 1, supercell_modes=True)
        start = State(
            ScalarField(grid, u0.nu_plus.values + pert),
            ScalarField(grid, u0.nu_minus.values - pert),
            u0.V,
            u0.gauge,
        )
        u_star, trace = newton_solve(start, h_vals, NewtonOptions(tol=1e-11))
        assert trace.converged
        results.append(u_star)
    assert state_distance(results[0], results[1]) <= 1e-9


def test_distances_recorded(sweep_point, cb_table):
    grid, u0, h_vals = sweep_point
    u_cb = cb.cb_field(cb_table, h_vals)
    u_star, trace = newton_solve(u0, h_vals, NewtonOptions(tol=1e-10), u_cb=u_cb)
    assert trace.distance_to_u0 > 0
    assert trace.distance_to_cb > trace.distance_to_u0  # eps vs eps^3 scale


def test_full_newton_mode_agrees(sweep_point):
    grid, u0, h_vals = sweep_point
    frozen, _ = newton_solve(u0, h_vals, NewtonOptions(tol=1e-11))
    refreshed, trace = newton_solve(
        u0, h_vals, NewtonOptions(tol=1e-11, refresh_jacobian=True)
    )
    assert trace.converged
    assert state_distance(frozen, refreshed) <= 1e-9


def test_trace_serialization(sweep_point, tmp_path):
    grid, u0, h_vals = sweep_point
    _, trace = newton_solve(u0, h_vals, NewtonOptions(tol=1e-10))
    payload = json.loads(trace.to_json())
    assert payload["converged"] is True
    assert payload["inner_rtols"] == trace.inner_rtols
    assert len(trace.inner_rtols) == len(trace.inner_iterations) == len(trace.increments)
    trace.write_csv(tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "step,residual,increment,ratio"
    assert len(lines) == len(trace.iterates) + 1


def test_gap_precondition_estimate(cb_table):
    grid = Grid(cb_table.lattice, GridSpec((8, 4, 4), (4, 1, 1)))
    h = HField(0.0, [((1, 0, 0), 0.06)])
    u0, _ = ts.build_u0(cb_table, h, grid)
    h_vals = h.sample(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = newton_solve(u0, h_vals, NewtonOptions(tol=1e-9, check_gap=True))
    assert trace.converged
    # the shift-invert gap on 1536 unknowns matches the dense spectrum's
    op = LinearizedOperator(u0, h_vals)
    exact = float(np.min(np.abs(np.linalg.eigvalsh(op.dense_matrix()))))
    assert trace.gap_estimate == pytest.approx(exact, abs=1e-10)
    assert trace.gap_estimate == pytest.approx(0.6341, abs=1e-4)
    # a direct call on the shift-invert path finds the same gap
    assert spectral_gap(op) == pytest.approx(exact, rel=1e-9)


def test_gap_precondition_above_dense_cutoff(cb_table):
    # n = 16 of the eps-sweep: 6144 unknowns
    n = 16
    grid = Grid(cb_table.lattice, GridSpec((8, 4, 4), (n, 1, 1)))
    h = HField(0.0, [((1, 0, 0), 0.08)])
    u0, _ = ts.build_u0(cb_table, h, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = newton_solve(
            u0, h.sample(grid), NewtonOptions(tol=1e-9, check_gap=True)
        )
    assert trace.converged
    # near the cell fibers' gap 0.592 at h = 0
    assert 0.58 < trace.gap_estimate < 0.61
