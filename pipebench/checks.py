"""Output checks of the three workloads.

Each check tests a property the method must have, or compares with a
computation made apart from the timed path; none compares with a stored copy
of earlier output.  Every function returns a list of failure messages, empty
when the check passes.
"""

from __future__ import annotations

import numpy as np

from tfdw.linop import FiberOperator, LinearizedOperator, monkhorst_pack
from tfdw.residual import residual

# Spin-flip images are computed by two separate marches; with cell
# residuals at the 1e-11 solver tolerance they agree far below this.
SPIN_FLIP_TOL = 1e-9
# Fourth-order central differences on the 0.0125 table step leave a
# truncation error near 5e-10 of max|m|; a wrong sign or a 1e-6 relative
# error in E or m is far above this.
HELLMANN_FEYNMAN_TOL = 1e-7
LEGENDRE_TOL = 1e-6            # C9
CONTRACTION_MAX = 0.5          # C7
# C6 and C8 lower bounds on the fitted log-log slopes
ANSATZ_SLOPE_MIN = 2.5
FIRST_ORDER_DEGRADATION_MIN = 0.7
CB_DISTANCE_SLOPE_MIN = 0.8
U0_DISTANCE_SLOPE_MIN = 2.5
SLOPE_AGREEMENT = 1e-8         # benchmark's refit vs the program's fit
M_REL_TOL = 1e-8


def fiber_gaps(state, h, xis, wrap=True):
    """Distance of each Bloch fiber's spectrum to zero, from a plain
    eigenvalue solve of the assembled fiber matrix."""
    op = LinearizedOperator(state, h)
    return [
        float(np.min(np.abs(np.linalg.eigvalsh(FiberOperator(op, xi, wrap).matrix))))
        for xi in xis
    ]


# -- cb-table ------------------------------------------------------------------


def residuals_within(table, tol):
    out = []
    for sol in table.solutions:
        r = residual(sol.state, sol.h_value).norm_l2n()
        if not r <= tol:
            out.append(f"residual {r:.3e} at h = {sol.h_value:+.4f} exceeds the solver tolerance {tol:.1e}")
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def fields_identical(written, loaded):
    out = []
    for what in ("h_samples", "E_CB", "m_tot", "gaps"):
        if not _same_bits(getattr(written, what), getattr(loaded, what)):
            out.append(f"{what} read back differs from what was written")
    pairs = [("sample", a.state, b.state) for a, b in zip(written.solutions, loaded.solutions)]
    pairs += [("dudh", a, b) for a, b in zip(written.dudh, loaded.dudh)]
    if len(written.solutions) != len(loaded.solutions) or len(written.dudh) != len(loaded.dudh):
        out.append("number of states read back differs from what was written")
    for i, (kind, a, b) in enumerate(pairs):
        for tag in ("nu_plus", "nu_minus", "V"):
            if not _same_bits(getattr(a, tag).values, getattr(b, tag).values):
                out.append(f"{kind} field {tag} of state {i % len(written.solutions)} differs bitwise")
        if not _same_bits(a.gauge, b.gauge):
            out.append(f"{kind} gauge of state {i % len(written.solutions)} differs bitwise")
    return out


def spin_flip(table):
    h, E, m = table.h_samples, table.E_CB, table.m_tot
    if not np.array_equal(h[::-1], -h):
        return ["field samples are not symmetric about h = 0"]
    out = []
    e_err = float(np.max(np.abs(E - E[::-1])) / np.max(np.abs(E)))
    m_err = float(np.max(np.abs(m + m[::-1])) / np.max(np.abs(m)))
    if not e_err <= SPIN_FLIP_TOL:
        out.append(f"E(-h) != E(h): relative deviation {e_err:.3e}")
    if not m_err <= SPIN_FLIP_TOL:
        out.append(f"m(-h) != -m(h): relative deviation {m_err:.3e}")
    return out


def hellmann_feynman(table):
    """dE_CB/dh = -m / |Gamma| by fourth-order central differences."""
    h, E, m = table.h_samples, table.E_CB, table.m_tot
    step = np.diff(h)
    if len(h) < 5 or not np.allclose(step, step[0], rtol=1e-12, atol=0.0):
        return ["Hellmann-Feynman check needs at least 5 equally spaced samples"]
    d = step[0]
    dE = (-E[4:] + 8.0 * E[3:-1] - 8.0 * E[1:-3] + E[:-4]) / (12.0 * d)
    vol = table.lattice.volume
    err = float(np.max(np.abs(dE + m[2:-2] / vol)) / (np.max(np.abs(m)) / vol))
    if not err <= HELLMANN_FEYNMAN_TOL:
        return [f"dE_CB/dh + m/|Gamma| = {err:.3e} of max|m|/|Gamma|"]
    return []


def legendre(table, rows):
    out = []
    for r in rows:
        e_cb = table.energy_at(r.h)
        if r.E_CB != e_cb:
            out.append(f"Legendre row at h = {r.h:+.4f} carries E_CB {r.E_CB!r}, table gives {e_cb!r}")
        rel = abs(r.legendre_value - e_cb) / abs(e_cb)
        if not rel <= LEGENDRE_TOL:
            out.append(f"Legendre duality error {rel:.3e} at h = {r.h:+.4f} exceeds {LEGENDRE_TOL:.0e}")
    if not rows:
        out.append("no Legendre rows")
    return out


def certified_gaps(table, threshold):
    out = []
    gaps = np.asarray(table.gaps)
    for h, g in zip(table.h_samples, gaps):
        if not g > threshold:
            out.append(f"certified gap {g:.3e} at h = {h:+.4f} is not above {threshold:.1e}")
    a = table.anchor_index()
    anchor = table.solutions[a]
    grid_min = min(fiber_gaps(anchor.state, anchor.h_value, monkhorst_pack(table.lattice, (2, 2, 2))))
    if not gaps[a] <= grid_min * (1.0 + 1e-12):
        out.append(f"refined anchor gap {gaps[a]:.12f} is above the zone-grid minimum {grid_min:.12f}")
    return out


def check_cb_table(written, loaded, rows, tol, threshold):
    return [
        *residuals_within(loaded, tol),
        *fields_identical(written, loaded),
        *spin_flip(loaded),
        *hellmann_feynman(loaded),
        *legendre(loaded, rows),
        *certified_gaps(loaded, threshold),
    ]


# -- eps-sweep -----------------------------------------------------------------


def _refit(eps, values, drop_largest):
    eps, values = np.asarray(eps, float), np.asarray(values, float)
    if drop_largest:
        keep = eps < eps.max()
        eps, values = eps[keep], values[keep]
    return float(np.polyfit(np.log(eps), np.log(values), 1)[0])


def check_eps_sweep(result):
    out = []
    for r in result.rows:
        if not r.converged:
            out.append(f"n = {r.n}: Newton did not converge")
        if not r.contraction_max <= CONTRACTION_MAX:
            out.append(f"n = {r.n}: contraction {r.contraction_max:.3f} above {CONTRACTION_MAX}")
    drop = result.slopes["drop_largest"]
    eps = [r.eps for r in result.rows]
    refit = {
        key: _refit(eps, [getattr(r, key) for r in result.rows], drop)
        for key in ("ansatz_residual", "ansatz_residual_first_order", "newton_distance_u0", "cb_distance")
    }
    for key, slope in refit.items():
        if not abs(slope - result.slopes[key]) <= SLOPE_AGREEMENT:
            out.append(f"{key} slope {result.slopes[key]:.6f} disagrees with the refit {slope:.6f}")
    degradation = refit["ansatz_residual"] - refit["ansatz_residual_first_order"]
    if not (refit["ansatz_residual"] >= ANSATZ_SLOPE_MIN and degradation >= FIRST_ORDER_DEGRADATION_MIN):
        out.append(
            f"C6: ansatz residual slope {refit['ansatz_residual']:.2f} (>= {ANSATZ_SLOPE_MIN}), "
            f"first-order degradation {degradation:.2f} (>= {FIRST_ORDER_DEGRADATION_MIN})"
        )
    if not (refit["cb_distance"] >= CB_DISTANCE_SLOPE_MIN and refit["newton_distance_u0"] >= U0_DISTANCE_SLOPE_MIN):
        out.append(
            f"C8: |u*-u_cb| slope {refit['cb_distance']:.2f} (>= {CB_DISTANCE_SLOPE_MIN}), "
            f"|u*-u0| slope {refit['newton_distance_u0']:.2f} (>= {U0_DISTANCE_SLOPE_MIN})"
        )
    return out


# -- supercell-stability -------------------------------------------------------


def check_supercell_stability(reports, cell_solution, h_value, physical_xis):
    """Every supercell is stable, holds one fiber per distinct folded
    quasimomentum, and its M equals 1 / (minimum gap of the cell fibers at
    the same physical quasimomenta)."""
    out = []
    direct = 1.0 / min(fiber_gaps(cell_solution.state, h_value, physical_xis))
    for n, rep in sorted(reports.items()):
        if rep.classification != "stable":
            out.append(f"n = {n}: classified {rep.classification}")
        expected_fibers = len(physical_xis) // n
        if len(rep.fiber_records) != expected_fibers:
            out.append(f"n = {n}: {len(rep.fiber_records)} fibers, expected {expected_fibers}")
        rel = abs(rep.M - direct) / direct
        if not rel <= M_REL_TOL:
            out.append(f"n = {n}: M = {rep.M!r} differs from the cell fibers' {direct!r} by {rel:.2e}")
    return out
