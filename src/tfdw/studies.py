"""Reproducible multi-run studies: sweeps, duality checks, stability-in-n.

Every number emitted here comes from a module operation; the only
study-level arithmetic is ordinary least squares on log-log data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import cauchy_born as cb
from . import twoscale as ts
from .cells import SolveOptions, solve_cell
from .errors import StructuralError
from .fieldio import write_csv
from .grids import Grid, GridSpec, HField, LatticeSpec, Mode, ScalarField, State
from .linop import stability_scan
from .newton import NewtonOptions, newton_solve
from .residual import residual

SLOPE_FLOOR = 1e-12  # averaged norms at or below this are roundoff, not an order


def fit_loglog_slope(xs, ys, drop_largest=True):
    """OLS slope of log(y) against log(x); by default the largest x
    (pre-asymptotic) point is excluded.  None when a fitted x is not
    positive and finite, or a fitted y is not finite or is at or below
    ``SLOPE_FLOOR``: a distance that vanishes to roundoff has no order."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if drop_largest and len(xs) > 2:
        keep = xs < np.max(xs)
        xs, ys = xs[keep], ys[keep]
    if len(xs) < 2:
        raise StructuralError("slope fit needs at least two points")
    if not (np.all(np.isfinite(xs) & (xs > 0)) and np.all(np.isfinite(ys) & (ys > SLOPE_FLOOR))):
        return None
    lx, ly = np.log(xs), np.log(ys)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(coef[0])


@dataclass
class EpsStudyRow:
    n: int
    eps: float
    ansatz_residual: float
    newton_distance_u0: float
    cb_distance: float
    contraction_max: float
    ansatz_residual_first_order: float = float("nan")
    converged: bool = True


@dataclass
class EpsStudyResult:
    rows: list[EpsStudyRow]
    slopes: dict
    table: cb.CBTable | None = None

    def write_csv(self, path):
        columns = ["n", "eps", "ansatz_residual", "newton_distance_u0", "cb_distance", "contraction_max"]
        write_csv(path, columns, ([getattr(r, c) for c in columns] for r in self.rows))


def run_eps_study(
    lattice: LatticeSpec,
    resolution,
    h_field: HField,
    n_values,
    cb_range,
    cb_step,
    newton_opts: NewtonOptions | None = None,
    drop_largest=True,
    table: cb.CBTable | None = None,
) -> EpsStudyResult:
    """For each supercell factor n: build the two-scale state, run the
    frozen-Jacobian iteration from it, whose first residual is the state's,
    and record distances.  The table is built over [-cb_range, cb_range]
    with default options unless given."""
    newton_opts = newton_opts or NewtonOptions()
    if table is None:
        table = cb.build_cb_table(lattice, GridSpec(tuple(resolution)), h_range=cb_range, step=cb_step)

    def run_one(n):
        grid_n = Grid(lattice, GridSpec(tuple(resolution), (n, 1, 1)))
        h_vals = h_field.sample(grid_n)
        cs = ts.second_order_correctors(ts.first_order_correctors(table, h_field, grid_n))
        u0_first, u0 = ts.assemble_orders(cs)
        res_first = residual(u0_first, h_vals).norm_l2n()
        u_cb = State.from_stack(grid_n, cs.u_cb)
        u_star, trace = newton_solve(u0, h_vals, newton_opts, u_cb=u_cb)
        return EpsStudyRow(
            n=n,
            eps=grid_n.eps,
            ansatz_residual=trace.iterates[0],
            newton_distance_u0=trace.distance_to_u0,
            cb_distance=trace.distance_to_cb,
            contraction_max=trace.contraction_max,
            ansatz_residual_first_order=res_first,
            converged=trace.converged,
        )

    rows = [run_one(n) for n in sorted(int(n) for n in n_values)]
    eps_v = [r.eps for r in rows]
    slopes = {
        "ansatz_residual": fit_loglog_slope(eps_v, [r.ansatz_residual for r in rows], drop_largest),
        "newton_distance_u0": fit_loglog_slope(
            eps_v, [r.newton_distance_u0 for r in rows], drop_largest
        ),
        "cb_distance": fit_loglog_slope(eps_v, [r.cb_distance for r in rows], drop_largest),
        "ansatz_residual_first_order": fit_loglog_slope(
            eps_v, [r.ansatz_residual_first_order for r in rows], drop_largest
        ),
        "drop_largest": drop_largest,
    }
    return EpsStudyResult(rows=rows, slopes=slopes, table=table)


@dataclass
class LegendreRow:
    h: float
    E_CB: float
    legendre_value: float
    minimizing_m: float
    rel_err: float


def run_legendre_study(
    table: cb.CBTable,
    h_values,
    m_count=9,
    m_margin=0.85,
    solve_opts: SolveOptions | None = None,
):
    """Check the duality E_CB(h) = min_m ( dual_E(m) - h m / |Gamma| ) at
    interior field values, with the dual energies from one sweep of
    constrained solves over the increasing m values (``cb.dual_sweep``),
    each running its chord steps on the Gamma factors of the one before.
    The minimizer is the best of the roots of the stationarity equation
    spline'(m) = h / |Gamma| and the two ends of the m range."""
    solve_opts = solve_opts or SolveOptions()
    lo, hi = table.m_range()
    m_values = np.linspace(m_margin * lo, m_margin * hi, m_count)
    duals = [d.energy for d in cb.dual_sweep(table, m_values, solve_opts)]
    spline = CubicSpline(m_values, duals)
    vol = table.lattice.volume
    slope, ends = spline.derivative(), m_values[[0, -1]]
    rows = []
    for h in h_values:
        candidates = np.concatenate([slope.solve(h / vol, extrapolate=False), ends])
        objective = spline(candidates) - h * candidates / vol
        best = int(np.argmin(objective))
        e_cb, value = float(table.energy_at(h)), float(objective[best])
        rel = abs(value - e_cb) / max(abs(e_cb), 1e-300)
        rows.append(LegendreRow(float(h), e_cb, value, float(candidates[best]), rel))
    return rows, (m_values, np.array(duals))


def write_legendre_csv(path, rows):
    columns = ["h", "E_CB", "legendre_value", "minimizing_m", "rel_err"]
    write_csv(path, columns, ([getattr(r, c) for c in columns] for r in rows))


def extended_as_cell(lattice: LatticeSpec, resolution, state: State, n: int):
    """Re-declare an n-fold supercell along the first lattice vector as a
    single large cell: scaled lattice vector, per-cell charge and mode
    indices, and the state values tiled periodically.  Exact on the
    collocation grid."""
    A = lattice.cell_vectors.copy()
    A[0] = A[0] * n
    modes = [Mode((m.m[0] * n,) + m.m[1:], m.amp, m.phase) for m in lattice.rho_b_modes]
    big_lattice = LatticeSpec(A, lattice.Z * n, modes)
    res = tuple(resolution)
    big_grid = Grid(big_lattice, GridSpec((res[0] * n,) + res[1:]))
    reps = (n, 1, 1)
    big_state = State(
        ScalarField(big_grid, np.tile(state.nu_plus.values, reps)),
        ScalarField(big_grid, np.tile(state.nu_minus.values, reps)),
        ScalarField(big_grid, np.tile(state.V.values, reps)),
        state.gauge,
    )
    return big_lattice, big_grid, big_state


def measure_stability_in_n(
    lattice: LatticeSpec,
    resolution,
    n_values=(1, 2, 4),
    n_xi=8,
    h_value=0.0,
    threshold=1e-6,
):
    """Measure the stability constant M on increasing supercells.

    The cell ground state (default solver options) is extended periodically
    along the first lattice vector and the n-fold supercell is treated as a
    single large cell; the scan samples a fixed set of physical
    quasimomenta, folded into the [0, 1) fractions of each supercell's own
    reciprocal basis (the commensurate_xis convention), so each supercell
    fiber is exactly the union of the cell fibers at the physical
    quasimomenta it folds, and M(n) equals M(1).
    """
    sol = solve_cell(lattice, GridSpec(tuple(resolution)), h_value)
    b1 = lattice.reciprocal_vectors[0]
    physical_xis = [(j / n_xi) * b1 for j in range(n_xi)]
    out = {}
    for n in n_values:
        big_lattice, big_grid, big_state = extended_as_cell(lattice, resolution, sol.state, int(n))
        B = big_lattice.reciprocal_vectors
        folded = []
        for xi in physical_xis:
            t = np.linalg.solve(B.T, xi)
            w = B.T @ (t - np.floor(t + 1e-12))
            if not any(np.allclose(w, f, atol=1e-12) for f in folded):
                folded.append(w)
        report = stability_scan(
            big_state, h_value, xi_grid=folded, threshold=threshold, refine=False
        )
        out[int(n)] = report
    return out, sol
