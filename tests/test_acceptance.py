"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them all.
The convergence-order criteria share a single quasi-1D sweep.
"""

import json

import numpy as np
import pytest

from tfdw import cauchy_born as cb
from tfdw import cli, jellium
from tfdw import twoscale as ts
from tfdw.energy import energy_supercell
from tfdw.grids import (
    Grid,
    GridSpec,
    HField,
    ScalarField,
    State,
    random_smooth_field,
)
from tfdw.linop import FiberOperator, LinearizedOperator
from tfdw.newton import NewtonOptions
from tfdw.residual import normalize_state, residual, variational_pairing
from tfdw.studies import measure_stability_in_n, run_eps_study


def report(criterion, ok, detail):
    print(f"[acceptance] {criterion}: {detail} -> {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sweep(lattice_mod, cb_table):
    return run_eps_study(
        lattice_mod,
        (8, 4, 4),
        HField(0.0, [((1, 0, 0), 0.08)]),
        n_values=(4, 6, 8, 12, 16),
        cb_range=0.1,
        cb_step=0.0125,
        newton_opts=NewtonOptions(tol=1e-10),
        table=cb_table,
    )


def test_c1_jellium_oracle_equivalence():
    worst = 0.0
    for nu0 in (0.3, 0.5, 1.0):
        params = jellium.JelliumParams(nu0)
        lat = jellium.jellium_lattice(params)
        grid = Grid(lat, GridSpec((4, 4, 4)))
        op = LinearizedOperator(jellium.jellium_state(params, grid), 0.0)
        b1 = lat.reciprocal_vectors[0]
        for t in np.linspace(0.0, 1.0, 21):
            f = FiberOperator(op, 0.5 * t * b1)
            numeric = np.sort(f.eigenvalues())
            analytic = []
            # symbol family over the fiber's own mode window
            for k1, k2, k3 in zip(*(k.ravel() for k in grid.k_cart)):
                q = (k1 + f.xi[0], k2 + f.xi[1], k3 + f.xi[2])
                analytic.extend(jellium.eigenvalues(params, q))
            worst = max(worst, float(np.max(np.abs(numeric - np.sort(analytic)))))
    report("C1 jellium-oracle-equivalence", worst <= 1e-8, f"max |numeric - analytic| = {worst:.3e}")


def test_c2_sdw_threshold_bisection():
    grid_spec = GridSpec((4, 4, 4))

    def sdw_channel_min(nu0):
        params = jellium.JelliumParams(nu0)
        lat = jellium.jellium_lattice(params)
        grid = Grid(lat, grid_spec)
        f = FiberOperator(LinearizedOperator(jellium.jellium_state(params, grid), 0.0), (0.0, 0.0, 0.0))
        vals, vecs = np.linalg.eigh(f.matrix)
        N = grid.total_points
        best = np.inf
        for i, lam in enumerate(vals):
            v = vecs[:, i]
            sdw = np.linalg.norm(v[:N] - v[N : 2 * N]) / np.sqrt(2.0)
            if sdw > 0.9:
                best = min(best, lam)
        return best

    lo, hi = 0.2, 0.3
    f_lo = sdw_channel_min(lo)
    assert f_lo < 0 < sdw_channel_min(hi)
    for _ in range(35):
        mid = 0.5 * (lo + hi)
        if sdw_channel_min(mid) * f_lo > 0:
            lo = mid
        else:
            hi = mid
    estimate = 0.5 * (lo + hi)
    target = (2.0 / 5.0) ** 1.5
    err = abs(estimate - target)
    cdw_ok = jellium.cdw_condition(jellium.JelliumParams(estimate))
    report(
        "C2 sdw-threshold",
        err <= 1e-6 and cdw_ok,
        f"bisection {estimate:.9f} vs (2/5)^(3/2) = {target:.9f} (err {err:.2e}); "
        f"charge channel still stable there: {cdw_ok} (spin wave destabilizes first)",
    )


def test_c3_variational_consistency(lattice_mod):
    grid = Grid(lattice_mod, GridSpec((8, 8, 8)))
    base = np.sqrt(lattice_mod.Z / (2.0 * lattice_mod.volume))
    rng = np.random.default_rng(42)
    slopes = []
    for _ in range(10):
        nup = base + 0.25 * random_smooth_field(grid, rng, 1.0, 2)
        num = base + 0.25 * random_smooth_field(grid, rng, 1.0, 2)
        state = normalize_state(
            State(
                ScalarField(grid, nup),
                ScalarField(grid, num),
                ScalarField(grid, np.zeros(grid.shape)),
                0.0,
            )
        )
        nup, num = state.nu_plus.values, state.nu_minus.values
        d_plus = random_smooth_field(grid, rng, 1.0, 2)
        d_minus = random_smooth_field(grid, rng, 1.0, 2)
        denom = grid.inner(nup, nup) + grid.inner(num, num)
        mu = (grid.inner(d_plus, nup) + grid.inner(d_minus, num)) / denom
        d_plus, d_minus = d_plus - mu * nup, d_minus - mu * num

        V = grid.poisson(4 * np.pi * (state.rho_values() - grid.rho_b))
        vstate = State(state.nu_plus, state.nu_minus, ScalarField(grid, V), 0.0)
        pairing = variational_pairing(vstate, d_plus, d_minus, 0.03)

        def energy_at(t):
            s = normalize_state(
                State(
                    ScalarField(grid, nup + t * d_plus),
                    ScalarField(grid, num + t * d_minus),
                    state.V,
                    0.0,
                )
            )
            return energy_supercell(s, 0.03).total

        ts_vals = np.array([0.02, 0.01, 0.005])
        errs = np.array([abs((energy_at(t) - energy_at(-t)) / (2 * t) - pairing) for t in ts_vals])
        A = np.vstack([np.log(ts_vals), np.ones(3)]).T
        slope = float(np.linalg.lstsq(A, np.log(errs), rcond=None)[0][0])
        slopes.append(slope)
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    report(
        "C3 variational-consistency",
        ok,
        f"Richardson slopes over 10 states in [{min(slopes):.3f}, {max(slopes):.3f}] (target 2.0 +- 0.2)",
    )


def test_c4_self_adjointness(cell_solution):
    state = cell_solution.state
    grid = state.grid
    op = LinearizedOperator(state, cell_solution.h_value)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        u = [random_smooth_field(grid, rng, 1.0, 3) for _ in range(3)]
        v = [random_smooth_field(grid, rng, 1.0, 3) for _ in range(3)]
        Lu = op.apply(tuple(u))
        Lv = op.apply(tuple(v))
        lhs = sum(grid.l2n_inner(a, b) for a, b in zip(Lu, v))
        rhs = sum(grid.l2n_inner(a, b) for a, b in zip(u, Lv))
        nu = np.sqrt(sum(grid.l2n(f) ** 2 for f in u))
        nv = np.sqrt(sum(grid.l2n(f) ** 2 for f in v))
        worst = max(worst, abs(lhs - rhs) / (nu * nv))
    report("C4 self-adjointness", worst <= 1e-10, f"max asymmetry / (|u||v|) = {worst:.3e}")


def test_c5_constant_field_degeneracy(cb_table):
    worst = 0.0
    exact = True
    h = HField(0.05)
    for n in (2, 4, 8):
        grid = Grid(cb_table.lattice, GridSpec((8, 4, 4), (n, 1, 1)))
        u0, cs = ts.build_u0(cb_table, h, grid)
        lead = cb.cb_field(cb_table, h.sample(grid))
        exact = exact and np.array_equal(u0.nu_plus.values, lead.nu_plus.values)
        exact = exact and np.array_equal(u0.v_full_values(), lead.v_full_values())
        worst = max(worst, residual(u0, h.sample(grid)).norm_l2n())
    report(
        "C5 constant-field-degeneracy",
        exact and worst <= 1e-9,
        f"u0 == locally-periodic state exactly: {exact}; max residual = {worst:.3e} (<= 1e-9)",
    )


def test_c6_ansatz_residual_order(sweep):
    slope = sweep.slopes["ansatz_residual"]
    slope_first = sweep.slopes["ansatz_residual_first_order"]
    degradation = slope - slope_first
    ok = slope >= 2.5 and degradation >= 0.7
    report(
        "C6 ansatz-residual-order",
        ok,
        f"residual slope {slope:.2f} (>= 2.5, target 3); dropping second-order "
        f"correctors gives {slope_first:.2f} (degradation {degradation:.2f} >= 0.7)",
    )


def test_c7_newton_contraction(sweep):
    rows = sorted(sweep.rows, key=lambda r: r.n)[-2:]
    worst = max(r.contraction_max for r in rows)
    ok = worst <= 0.5 and all(r.converged for r in rows)
    report(
        "C7 newton-contraction",
        ok,
        f"max increment ratio after step 1 on n = {[r.n for r in rows]}: {worst:.3f} (<= 0.5)",
    )


def test_c8_asymptotic_distances(sweep):
    cb_slope = sweep.slopes["cb_distance"]
    u0_slope = sweep.slopes["newton_distance_u0"]
    ok = cb_slope >= 0.8 and u0_slope >= 2.5
    report(
        "C8 distance-orders",
        ok,
        f"|u* - u_cb| slope {cb_slope:.2f} (>= 0.8, target 1); "
        f"|u* - u0| slope {u0_slope:.2f} (>= 2.5, target 3)",
    )


def test_c9_legendre_duality(cb_table):
    from tfdw.studies import run_legendre_study

    h_values = [-0.06, -0.03, 0.02, 0.045, 0.07]
    rows, _ = run_legendre_study(cb_table, h_values, m_count=9)
    worst = max(r.rel_err for r in rows)
    report(
        "C9 legendre-duality",
        worst <= 1e-6,
        f"max relative duality gap over {len(rows)} interior h values = {worst:.3e} (<= 1e-6)",
    )


def test_c10_stability_constant_in_n(lattice_mod):
    reports, _ = measure_stability_in_n(lattice_mod, (8, 4, 4), n_values=(1, 2, 4), n_xi=8)
    ms = [reports[n].M for n in (1, 2, 4)]
    spread = (max(ms) - min(ms)) / max(ms)
    ok = spread <= 1e-10 and all(r.classification == "stable" for r in reports.values())
    report(
        "C10 stability-in-n",
        ok,
        f"M(n) = {[f'{m:.12f}' for m in ms]} for n = (1, 2, 4); relative spread {spread:.2e} (<= 1e-10)",
    )


# one small config with the sections of all 8 commands; the two-scale
# commands build their table
C11_CONFIG = {
    "seed": 0,
    "lattice": {
        "cell_vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "Z": 3.0,
        "rho_b_modes": [{"m": [1, 0, 0], "amp": 0.15}],
    },
    "grid": {"resolution": [8, 4, 4]},
    "h": {"modes": [{"m": [1, 0, 0], "amp": 0.05}]},
    "cb": {"h_range": 0.06, "step": 0.02, "verify_samples": False},
    "eps": {"n_values": [2, 4]},
    "cell": {"h_value": 0.02},
    "two_scale": {"n": 4},
    "legendre": {"h_values": [0.03], "m_count": 7},
    "jellium": {"nu0_count": 10, "xi_count": 5},
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_c11_determinism(tmp_path, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(C11_CONFIG))
    trees = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main([command, "--config", str(path), "--out", str(out), "--seed", "0"]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    identical = bool(trees[0]) and trees[0] == trees[1]
    report(
        "C11 determinism",
        identical,
        f"two seeded {command} runs write the same {len(trees[0])} files, byte for byte",
    )
