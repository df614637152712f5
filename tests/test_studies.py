import dataclasses

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from tfdw import twoscale as ts
from tfdw.errors import StructuralError
from tfdw.grids import Grid, GridSpec, HField, LatticeSpec
from tfdw.linop import FiberOperator, LinearizedOperator
from tfdw.residual import residual
from tfdw.studies import (
    extended_as_cell,
    fit_loglog_slope,
    measure_stability_in_n,
    run_eps_study,
    run_legendre_study,
)


def test_slope_fit_two_point_closed_form():
    # y = x^2 through two points: slope exactly 2
    xs = [0.5, 0.25]
    ys = [x**2 for x in xs]
    assert fit_loglog_slope(xs, ys, drop_largest=False) == pytest.approx(2.0, abs=1e-14)


def test_slope_fit_drop_largest():
    xs = [1.0, 0.5, 0.25]
    ys = [10.0, 0.25, 0.0625]  # first point is junk; the rest follow x^2
    assert fit_loglog_slope(xs, ys, drop_largest=True) == pytest.approx(2.0, abs=1e-12)
    assert fit_loglog_slope(xs, ys, drop_largest=False) != pytest.approx(2.0, abs=0.1)


def test_slope_fit_refuses_roundoff():
    # norms at roundoff level (as a constant-field ansatz residual reads)
    # have no order, even when they happen to drift with x
    xs = [0.5, 0.25, 0.125]
    assert fit_loglog_slope(xs, [1.1e-13, 1.0e-13, 0.8e-13], drop_largest=False) is None
    assert fit_loglog_slope(xs, [1.0e-3, 1.0e-8, 1.0e-13], drop_largest=False) is None
    # only the kept data count: the dropped largest x may sit at the floor
    assert fit_loglog_slope(xs, [1.0e-13, 1.0e-6, 1.0e-9]) == pytest.approx(np.log2(1e3))


def test_slope_fit_needs_points():
    with pytest.raises(StructuralError):
        fit_loglog_slope([1.0], [1.0], drop_largest=False)


def test_extended_as_cell_is_exact(cell_solution, lattice_mod):
    big_lat, big_grid, big_state = extended_as_cell(lattice_mod, (8, 4, 4), cell_solution.state, 3)
    # the background built from the scaled mode indices matches the tiling
    rho_big = big_lat.rho_b_values(big_grid)
    rho_small = lattice_mod.rho_b_values(cell_solution.grid)
    assert np.max(np.abs(rho_big - np.tile(rho_small, (3, 1, 1)))) < 1e-13
    # the extended state still solves the Euler-Lagrange system
    assert residual(big_state, 0.0).norm_l2n() <= 2 * cell_solution.residual_norm + 1e-12


def test_stability_constant_uniform_in_n(lattice_mod):
    reports, sol = measure_stability_in_n(lattice_mod, (8, 4, 4), n_values=(1, 2), n_xi=4)
    ms = [reports[n].M for n in (1, 2)]
    assert all(r.classification == "stable" for r in reports.values())
    spread = (max(ms) - min(ms)) / max(ms)
    assert spread <= 1e-10


def test_stability_in_n_matches_cell_fibers_on_coarse_axis(lattice_mod):
    # with 4 points along the supercell axis a fold into [-1/2, 1/2) moves
    # the fibers' fftfreq windows; folded into [0, 1) each supercell fiber
    # is exactly the union of the cell fibers at its physical quasimomenta
    h = 0.02
    reports, sol = measure_stability_in_n(lattice_mod, (4, 4, 4), n_values=(1, 2), n_xi=4, h_value=h)
    op = LinearizedOperator(sol.state, h)
    b1 = lattice_mod.reciprocal_vectors[0]
    direct = min(
        np.min(np.abs(FiberOperator(op, (j / 4) * b1, wrap=False).eigenvalues())) for j in range(4)
    )
    assert [len(reports[n].fiber_records) for n in (1, 2)] == [4, 2]
    for n in (1, 2):
        assert reports[n].M == pytest.approx(1.0 / direct, rel=1e-10)


def test_eps_sweep_tabulates_the_correctors_once(cb_table, factorizations):
    # a sweep factorizes the table's knots h >= 0 once for all n; a second
    # sweep on the same table factorizes nothing and repeats every row and
    # slope bit for bit
    h = HField(0.0, [((1, 0, 0), 0.08)])
    table = dataclasses.replace(cb_table)  # same samples, empty caches
    built, _ = factorizations

    def sweep():
        return run_eps_study(
            table.lattice, (8, 4, 4), h, (4, 8), cb_range=0.1, cb_step=0.0125, table=table
        )

    first = sweep()
    assert len(built) == 9
    again = sweep()
    assert len(built) == 9
    assert first.rows == again.rows
    assert first.slopes == again.slopes


def test_eps_sweep_ansatz_residual_is_the_residual_at_u0(cb_table):
    # the sweep reads the ansatz residual off Newton's first evaluation, the
    # one at u0; it equals the residual at u0 evaluated on its own, bit for
    # bit, and not the converged residual Newton ends with
    h = HField(0.0, [((1, 0, 0), 0.08)])
    result = run_eps_study(
        cb_table.lattice, (8, 4, 4), h, (4, 8), cb_range=0.1, cb_step=0.0125, table=cb_table
    )
    assert [r.n for r in result.rows] == [4, 8]
    for row in result.rows:
        grid_n = Grid(cb_table.lattice, GridSpec((8, 4, 4), (row.n, 1, 1)))
        u0, _ = ts.build_u0(cb_table, h, grid_n)
        assert row.converged
        assert row.ansatz_residual == residual(u0, h.sample(grid_n)).norm_l2n()


def test_legendre_minimizer_solves_the_stationarity_equation(cb_table):
    # minimizing_m is written with 17 digits, so it is the root of the dual
    # spline's stationarity equation spline'(m) = h / |Gamma| to roundoff,
    # not where a bounded search on the flat objective stops (up to 4e-9 of
    # the largest slope short of it)
    h_values = [-0.06, -0.02, 0.02, 0.045, 0.07]
    rows, (m_values, duals) = run_legendre_study(cb_table, h_values, m_count=9)
    slope = CubicSpline(m_values, duals).derivative()
    largest = np.max(np.abs(slope(np.linspace(m_values[0], m_values[-1], 257))))
    vol = cb_table.lattice.volume
    for row in rows:
        assert m_values[0] < row.minimizing_m < m_values[-1]
        assert abs(slope(row.minimizing_m) - row.h / vol) <= 1e-12 * largest
        assert row.rel_err <= 1e-6
