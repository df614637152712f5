import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

from tfdw import cauchy_born as cb
from tfdw import linop
from tfdw.cells import SolveOptions, solve_cell
from tfdw.errors import (
    ContinuationStopError,
    DivergenceError,
    InfeasibleConstraintError,
    PositivityLossError,
    RangeError,
    SpinSymmetryError,
    StructuralError,
)
from tfdw.grids import Grid, GridSpec, HField, LatticeSpec, ScalarField, State
from tfdw.linop import FiberOperator, LinearizedOperator, monkhorst_pack, stability_scan
from tfdw.residual import residual
from tfdw.studies import run_legendre_study


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_anchor_is_reused_bitwise(cb_table):
    i0 = cb_table.anchor_index()
    assert cb_table.h_samples[i0] == 0.0
    anchor = cb_table.solutions[i0]
    assert anchor.h_value == 0.0
    # the spline reproduces knot values exactly
    st = cb_table.state_at(0.0)
    assert np.allclose(st.nu_plus.values, anchor.state.nu_plus.values, atol=1e-12)


def test_all_samples_certified(cb_table):
    for sol in cb_table.solutions:
        assert sol.residual_norm <= 1e-11
        assert sol.C_nu_ok
    assert np.all(np.nan_to_num(cb_table.gaps, nan=1.0) > 1e-6)


def test_magnetization_odd_and_energy_even(cb_table):
    m = cb_table.m_tot
    assert np.max(np.abs(m + m[::-1])) < 1e-8
    e = cb_table.E_CB
    assert np.max(np.abs(e - e[::-1])) < 1e-8
    assert cb_table.m_at(0.0) == pytest.approx(0.0, abs=1e-10)


def test_dudh_antisymmetry_at_zero(cb_table):
    i0 = cb_table.anchor_index()
    du = cb_table.dudh[i0]
    assert np.max(np.abs(du.nu_plus.values + du.nu_minus.values)) < 1e-9


def test_dudh_matches_finite_differences(cb_table):
    # centered differences of tabulated solutions against the solved
    # derivative, second-order in the step
    i0 = cb_table.anchor_index()
    du = cb_table.dudh[i0]
    h = cb_table.h_samples
    step = h[i0 + 1] - h[i0]

    def fd(k):
        a = cb_table.solutions[i0 + k].state.nu_plus.values
        b = cb_table.solutions[i0 - k].state.nu_plus.values
        return (a - b) / (2 * k * step)

    err1 = np.max(np.abs(fd(1) - du.nu_plus.values))
    err2 = np.max(np.abs(fd(2) - du.nu_plus.values))
    slope = np.log2(err2 / err1)
    assert 1.6 <= slope <= 2.4


def test_energy_curve_consistency(cb_table):
    vol = cb_table.lattice.volume
    # E_CB(0) is the averaged anchor energy
    anchor = cb_table.solutions[cb_table.anchor_index()]
    assert cb_table.energy_at(0.0) == pytest.approx(anchor.energy.total / vol, rel=1e-12)
    # envelope: dE/dh = -m/|Gamma| at interior samples
    es = cb_table.energy_spline()
    for h in (-0.05, 0.025, 0.0625):
        assert float(es(h, 1)) == pytest.approx(-cb_table.m_at(h) / vol, abs=5e-6)


def test_divided_differences_bounded(cb_table):
    # smoothness surrogate: third divided differences stay bounded
    vals = np.array([sol.state.stacked() for sol in cb_table.solutions])
    h = cb_table.h_samples
    d3 = np.diff(vals, n=3, axis=0) / (h[1] - h[0]) ** 3
    assert np.all(np.isfinite(d3))
    assert np.max(np.abs(d3)) < 1e4


def test_state_spline_range_error(cb_table):
    with pytest.raises(RangeError):
        cb_table.state_at(cb_table.h_max + 0.01)
    with pytest.raises(RangeError):
        cb_table.energy_at(cb_table.h_min - 0.01)


def test_cb_field_constant_is_periodic_extension(cb_table):
    grid = Grid(cb_table.lattice, GridSpec((8, 4, 4), (3, 1, 1)))
    c = 0.05  # a table knot
    state = cb.cb_field(cb_table, c, grid=grid)
    cell_state = cb_table.state_at(c)
    assert np.array_equal(state.nu_plus.values, np.tile(cell_state.nu_plus.values, (3, 1, 1)))
    assert np.max(np.abs(state.v_full_values() - np.tile(cell_state.v_full_values(), (3, 1, 1)))) < 1e-14


def test_cb_field_zero_is_anchor_extension(cb_table):
    grid = Grid(cb_table.lattice, GridSpec((8, 4, 4), (2, 1, 1)))
    state = cb.cb_field(cb_table, 0.0, grid=grid)
    anchor = cb_table.solutions[cb_table.anchor_index()].state
    assert np.array_equal(state.nu_plus.values, np.tile(anchor.nu_plus.values, (2, 1, 1)))


def test_cb_field_range_check(cb_table):
    grid = Grid(cb_table.lattice, GridSpec((8, 4, 4), (2, 1, 1)))
    boom = ScalarField(grid, np.full(grid.shape, cb_table.h_max * 2))
    with pytest.raises(RangeError):
        cb.cb_field(cb_table, boom)


def test_cb_field_takes_a_slow_field_only_sampled(cb_table):
    # an HField reaches cb_field as its values on the grid, not unsampled
    grid = Grid(cb_table.lattice, GridSpec((8, 4, 4), (4, 1, 1)))
    with pytest.raises(StructuralError):
        cb.cb_field(cb_table, HField(0.0, [((1, 0, 0), 0.06)]), grid=grid)


def test_cb_field_modulated_matches_pointwise_spline(cb_table):
    grid = Grid(cb_table.lattice, GridSpec((8, 4, 4), (4, 1, 1)))
    h = HField(0.0, [((1, 0, 0), 0.06)])
    h_vals = h.sample(grid)
    state = cb.cb_field(cb_table, h_vals)
    # spot-check a few points against a direct per-point spline evaluation
    rng = np.random.default_rng(0)
    for _ in range(5):
        i = tuple(rng.integers(0, s) for s in grid.shape)
        cell_state = cb_table.state_at(float(np.round(h_vals.values[i], 12)))
        micro = (i[0] % 8, i[1] % 4, i[2] % 4)
        assert state.nu_plus.values[i] == pytest.approx(
            cell_state.nu_plus.values[micro], abs=1e-12
        )


def test_dual_energy_symmetric_point(cb_table):
    e0 = cb.dual_energy(cb_table, 0.0).energy
    assert e0 == pytest.approx(cb_table.energy_at(0.0), rel=1e-9)


def test_dual_energy_even_in_m(cb_table):
    m = 0.5 * cb_table.m_range()[1]
    ep = cb.dual_energy(cb_table, m).energy
    em = cb.dual_energy(cb_table, -m).energy
    assert ep == pytest.approx(em, rel=1e-10)


def test_dual_energy_constraint_enforced(cb_table):
    m = 0.4 * cb_table.m_range()[1]
    res = cb.dual_energy(cb_table, m)
    assert abs(res.constraint_defect) < 1e-11
    assert res.residual_norm < 1e-10
    # the magnetization multiplier plays the role of a constant field
    assert cb_table.m_at(res.field_multiplier) == pytest.approx(m, abs=1e-6)


def test_dual_energy_evaluates_the_residual_once_per_pass(cb_table, monkeypatch, residual_calls):
    # every pass but the last makes one bordered solve; each pass evaluates
    # the residual once, and the returned norm is the last pass's
    solves = [0]
    dense_solve = LinearizedOperator.dense_solve

    def counted(self, *args, **kwargs):
        solves[0] += 1
        return dense_solve(self, *args, **kwargs)

    monkeypatch.setattr(LinearizedOperator, "dense_solve", counted)
    sol = cb.dual_energy(cb_table, 0.5 * (cb_table.m_tot[-2] + cb_table.m_tot[-3]))
    assert solves[0] >= 1
    assert residual_calls == {"residual": 0, "residual_system": solves[0] + 1}
    assert sol.residual_norm == residual(sol.state, sol.field_multiplier).norm_l2n()


def test_dual_sweep_matches_single_solves(cb_table):
    # the chord steps of an ordered sweep, each solve on the factors of the
    # one before, reach the single solves' dual energies and multipliers
    lo, hi = cb_table.m_range()
    m_values = np.linspace(0.85 * lo, 0.85 * hi, 9)
    swept = cb.dual_sweep(cb_table, m_values)
    for m, sol in zip(m_values, swept, strict=True):
        single = cb.dual_energy(cb_table, m)
        assert sol.m_target == m and abs(sol.constraint_defect) <= 1e-11
        assert sol.energy == pytest.approx(single.energy, rel=1e-12, abs=0.0)
        assert sol.field_multiplier == pytest.approx(single.field_multiplier, rel=1e-9, abs=1e-12)


def test_dual_energy_infeasible(cb_table):
    lo, hi = cb_table.m_range()
    with pytest.raises(InfeasibleConstraintError):
        cb.dual_energy(cb_table, 2 * hi)


def test_legendre_identity_single_point(cb_table):
    rows, _ = run_legendre_study(cb_table, [0.04], m_count=9)
    assert rows[0].rel_err <= 1e-6


@pytest.fixture
def work_counts(monkeypatch):
    """Factorizations (the dtype of each block handed to Bunch-Kaufman),
    eigensolves (``min_eigenpair``) and the shift-invert solves the
    eigensolves make (applications of the solve handed to ARPACK), counted
    during the test."""
    counts = {"factorizations": [], "eigensolves": 0, "shift_invert": 0}
    bunch_kaufman, eigsh, min_eigenpair = linop._bunch_kaufman, linop.eigsh, FiberOperator.min_eigenpair

    def counted_bunch_kaufman(K):
        counts["factorizations"].append(K.dtype.name)
        return bunch_kaufman(K)

    def counted_eigsh(*args, OPinv, **kwargs):
        def solve(b):
            counts["shift_invert"] += 1
            return OPinv.matvec(b)

        return eigsh(*args, OPinv=LinearOperator(OPinv.shape, matvec=solve, dtype=OPinv.dtype), **kwargs)

    def counted_eigenpair(self, *args, **kwargs):
        counts["eigensolves"] += 1
        return min_eigenpair(self, *args, **kwargs)

    monkeypatch.setattr(linop, "_bunch_kaufman", counted_bunch_kaufman)
    monkeypatch.setattr(linop, "eigsh", counted_eigsh)
    monkeypatch.setattr(FiberOperator, "min_eigenpair", counted_eigenpair)
    return counts


def test_table_and_dual_sweep_factor_once_per_sample(lattice_mod, work_counts):
    # the workhorse table: the anchor's cell solve, refined scan and du/dh
    # make 12 factorizations, and each of the 8 march samples 2, both in its
    # scan (the du/dh solve and the next corrector reuse its Gamma factors);
    # the correctors factor nothing.  Every block is real: the Gamma fiber's
    # K, and the real form of every other fiber's, since the state is even
    # about a grid point.  A 9-point Legendre study factors once
    table = cb.build_cb_table(lattice_mod, GridSpec((8, 4, 4)), h_range=0.1, step=0.0125, opts=SolveOptions())
    assert work_counts == {"factorizations": ["float64"] * 28, "eigensolves": 25, "shift_invert": 238}
    work_counts["factorizations"] = []
    run_legendre_study(table, [0.04], m_count=9)
    assert work_counts["factorizations"] == ["float64"]


def test_hermite_predictor_is_close_and_the_corrector_short(lattice_mod, monkeypatch):
    # from march step 2 on, the cubic Hermite predictor through the last two
    # samples and their du/dh lies within 1e-7 of the accepted state, and
    # the chord corrector reaches the target in 3 steps, taking one more
    polish = cb.newton_polish
    calls = []

    def recorded(*args, **kwargs):
        out = polish(*args, **kwargs)
        calls.append((args[0].stacked(), out))
        return out

    monkeypatch.setattr(cb, "newton_polish", recorded)
    cb.build_cb_table(lattice_mod, GridSpec((8, 4, 4)), h_range=0.1, step=0.0125, verify_samples=False)
    assert len(calls) == 8
    target = 0.1 * SolveOptions().tol
    for predictor, (state, _, iterations, history) in calls[1:]:
        assert rel_err(predictor, state.stacked()) <= 1e-7
        assert iterations == 4 and history[3] <= target < history[2]


def test_continuation_stop_reports_last_good(lattice_mod):
    # an absurd certified lower bound on nu stops the march immediately
    opts = SolveOptions(c_nu=1.5)
    with pytest.raises(ContinuationStopError) as err:
        cb.build_cb_table(
            lattice_mod, GridSpec((8, 4, 4)), h_range=0.05, step=0.025,
            opts=opts, verify_samples=False,
        )
    assert err.value.last_good_h == 0.0


def test_continuation_stop_carries_accepted_samples(lattice_mod, monkeypatch):
    # the corrector fails at the second step of the march (h = 0.05): the
    # error holds the anchor and the sample at h = 0.025, with their gaps
    polish = cb.newton_polish
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 2:
            raise DivergenceError("forced stall")
        return polish(*args, **kwargs)

    monkeypatch.setattr(cb, "newton_polish", fail_second)
    with pytest.raises(ContinuationStopError, match="forced stall") as err:
        cb.build_cb_table(
            lattice_mod, GridSpec((8, 4, 4)), h_range=0.05, step=0.025, opts=SolveOptions()
        )
    assert calls == [0.025, 0.05]
    assert err.value.last_good_h == 0.025
    partial = err.value.partial
    assert partial["h_values"] == [0.0, 0.025]
    assert [s.h_value for s in partial["solutions"]] == [0.0, 0.025]
    assert all(s.residual_norm <= 1e-11 for s in partial["solutions"])
    assert len(partial["gaps"]) == 2
    assert all(0.5 < g < 0.7 for g in partial["gaps"])
    assert partial["gaps"][0] < partial["gaps"][1]  # the anchor's gap is refined


def test_continuation_stop_without_certificates_is_json(lattice_mod, monkeypatch):
    # with verify_samples=False the accepted samples carry no gap: the
    # error's diagnostics report None for them and stay JSON-ready
    polish = cb.newton_polish
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 2:
            raise DivergenceError("forced stall")
        return polish(*args, **kwargs)

    monkeypatch.setattr(cb, "newton_polish", fail_second)
    with pytest.raises(ContinuationStopError) as err:
        cb.build_cb_table(
            lattice_mod, GridSpec((8, 4, 4)), h_range=0.05, step=0.025, verify_samples=False
        )
    payload = json.loads(json.dumps(err.value.diagnostics()))
    assert payload["partial"]["h_values"] == [0.0, 0.025]
    gaps = payload["partial"]["gaps"]
    assert 0.5 < gaps[0] < 0.7 and gaps[1] is None


def test_continuation_stop_names_the_step_gap_and_nu_bound():
    # near the spin-wave edge of a Z = 0.3 cube the corrector from h = 0.04
    # leaves the positive branch at h = 0.045, while the last certified
    # sample sits well inside C_nu and its gap fell from 0.0857 to 0.0582 in
    # one step: the stop names the predictor step, that gap and min nu
    # against C_nu, and asserts no cause
    with pytest.raises(ContinuationStopError) as err:
        cb.build_cb_table(
            LatticeSpec.cubic(1.0, 0.3, [((1, 0, 0), 0.015)]), GridSpec((8, 4, 4)), h_range=0.05, step=0.005
        )
    stop = err.value
    payload = json.loads(json.dumps(stop.diagnostics()))
    assert payload["last_good_h"] == pytest.approx(0.04, abs=1e-15)
    assert payload["dh"] == pytest.approx(0.005, abs=1e-15)
    assert payload["last_gap"] == payload["partial"]["gaps"][-1] == pytest.approx(0.05824, abs=1e-5)
    assert payload["last_min_nu"] == pytest.approx(0.2504, abs=1e-4)
    assert payload["c_nu"] == pytest.approx(0.1936, abs=1e-4)
    message = str(stop)
    assert "corrector failed at h = 0.045" in message
    assert "dh = 0.005" in message and "gap 0.05824" in message
    assert "min nu 0.2504 >= C_nu 0.1936" in message
    assert isinstance(stop.__cause__, PositivityLossError)
    assert "interior" not in message


def test_table_save_load_roundtrip(tmp_path, cb_table):
    cb.save_table(tmp_path / "table", cb_table)
    loaded = cb.load_table(tmp_path / "table")
    assert np.array_equal(loaded.h_samples, cb_table.h_samples)
    assert np.allclose(loaded.E_CB, cb_table.E_CB, atol=1e-15)
    a = loaded.state_at(0.03125).nu_plus.values
    b = cb_table.state_at(0.03125).nu_plus.values
    assert np.max(np.abs(a - b)) < 1e-13
    # an uncertified sample's gap is null in table.json and NaN when read
    manifest = tmp_path / "table" / "table.json"
    gaps = [None] * len(cb_table.h_samples)
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "gaps": gaps}))
    assert np.all(np.isnan(cb.load_table(tmp_path / "table").gaps))
    cb.export_curves_csv(cb_table, tmp_path / "curves.csv")
    lines = (tmp_path / "curves.csv").read_text().strip().split("\n")
    assert lines[0] == "h,E_CB,m_tot"
    assert len(lines) == len(cb_table.h_samples) + 1


def test_table_missing_a_field_file_raises_structural_error(tmp_path, cb_table):
    # a table directory that lost one .tfw file is refused with a typed
    # error naming that file
    cb.save_table(tmp_path / "table", cb_table)
    (tmp_path / "table" / "dudh_001_V.tfw").unlink()
    with pytest.raises(StructuralError, match="dudh_001_V.tfw"):
        cb.load_table(tmp_path / "table")


def test_table_solves_du_dh_once_per_sample(lattice_mod, monkeypatch):
    # du/dh is solved once per sample of the h >= 0 march; each h < 0 sample
    # takes -S du/dh of its partner (S swaps the spin channels)
    made = []
    solve = cb.solve_du_dh

    def counted(sol, **kwargs):
        made.append(sol)
        return solve(sol, **kwargs)

    monkeypatch.setattr(cb, "solve_du_dh", counted)
    table = cb.build_cb_table(
        lattice_mod, GridSpec((8, 4, 4)), h_range=0.025, step=0.0125, opts=SolveOptions()
    )
    assert len(table.solutions) == 5
    assert len(made) == 3
    assert [id(s) for s in made] == [id(s) for s in table.solutions[2:]]
    for i, (sol, du) in enumerate(zip(table.solutions, table.dudh)):
        again = solve(sol)
        if sol.h_value >= 0.0:
            assert du.stacked().tobytes() == again.stacked().tobytes()
            assert du.gauge == again.gauge
            continue
        partner = table.dudh[len(table.dudh) - 1 - i]
        assert table.h_samples[len(table.dudh) - 1 - i] == -sol.h_value
        for tag, other in (("nu_plus", "nu_minus"), ("nu_minus", "nu_plus"), ("V", "V")):
            assert getattr(du, tag).values.tobytes() == (-getattr(partner, other).values).tobytes()
        assert du.gauge == -partner.gauge
        assert rel_err(du.stacked(), again.stacked()) <= 1e-10


def test_negative_field_samples_match_independent_solves(cb_table, lattice_mod):
    # the h < 0 half of the table is the spin flip of the h > 0 half; a cold
    # cell solve, a fresh certificate and a fresh du/dh solve at h = -0.05
    # must reproduce the mirrored sample
    h = -0.05
    (i,) = np.nonzero(cb_table.h_samples == h)[0]
    sample = cb_table.solutions[i]
    cold = solve_cell(lattice_mod, cb_table.grid, h, "uniform", SolveOptions())
    assert rel_err(sample.state.stacked(), cold.state.stacked()) <= 1e-10
    vol = lattice_mod.volume
    assert cb_table.E_CB[i] == pytest.approx(cold.energy.total / vol, rel=1e-12)
    m_cold = cold.grid.integrate(cold.state.m_values())
    assert cb_table.m_tot[i] == pytest.approx(m_cold, rel=1e-12)
    assert m_cold < 0.0

    report = stability_scan(sample.state, sample.h_value, refine=False)
    assert report.global_gap == pytest.approx(cb_table.gaps[i], rel=1e-12)
    assert {r.n_negative for r in report.fiber_records} == {cb_table.grid.total_points}

    assert rel_err(cb_table.dudh[i].stacked(), cb.solve_du_dh(sample).stacked()) <= 1e-10


def test_warm_started_scan_matches_cold_scan_with_less_work(cb_table, monkeypatch):
    # the certificate at one knot, warm-started from the report of the knot
    # before (as the continuation does), is the cold certificate to 1e-12
    # for at most 60 % of its inner shift-invert solves
    solves = []
    factor = FiberOperator.factor

    def counted_factor(self):
        solve = factor(self)

        def counted(b):
            solves.append(1)
            return solve(b)

        return counted

    monkeypatch.setattr(FiberOperator, "factor", counted_factor)
    (i,) = np.nonzero(cb_table.h_samples == 0.025)[0]
    previous = stability_scan(cb_table.solutions[i].state, cb_table.solutions[i].h_value, refine=False)
    sample = cb_table.solutions[i + 1]
    del solves[:]
    cold = stability_scan(sample.state, sample.h_value, refine=False)
    n_cold = len(solves)
    warm = stability_scan(sample.state, sample.h_value, refine=False, previous=previous)
    n_warm = len(solves) - n_cold
    assert n_warm <= 0.6 * n_cold
    assert warm.classification == cold.classification == "stable"
    for w, c in zip(warm.fiber_records, cold.fiber_records, strict=True):
        assert w.xi == c.xi and w.n_negative == c.n_negative
        assert w.gap == pytest.approx(c.gap, rel=1e-12)
        assert w.eigenvalue == pytest.approx(c.eigenvalue, rel=1e-12)
    assert len(warm.fiber_vectors) == len(warm.fiber_records)
    assert replace(warm, fiber_vectors=None) == warm  # the vectors are not compared
    with pytest.raises(StructuralError, match="same xi grid"):
        xis = monkhorst_pack(cb_table.lattice, (3, 3, 3))
        stability_scan(sample.state, sample.h_value, xi_grid=xis, refine=False, previous=previous)


def test_asymmetric_anchor_is_refused(lattice_mod, monkeypatch):
    # the mirror needs nu_+ == nu_- at h = 0; an anchor off by 1e-9 in one
    # point raises before any certificate, with the asymmetry in its payload
    solve = cb.solve_cell
    certified = []

    def perturbed(*args, **kwargs):
        sol = solve(*args, **kwargs)
        s = sol.state
        nu_plus = s.nu_plus.values.copy()
        nu_plus[0, 0, 0] += 1e-9
        return replace(sol, state=State(ScalarField(s.grid, nu_plus), s.nu_minus, s.V, s.gauge))

    monkeypatch.setattr(cb, "solve_cell", perturbed)
    monkeypatch.setattr(cb, "stability_scan", lambda *a, **k: certified.append(a))
    with pytest.raises(SpinSymmetryError) as err:
        cb.build_cb_table(lattice_mod, GridSpec((8, 4, 4)), h_range=0.025, step=0.0125)
    assert err.value.diagnostics()["asymmetry"] == pytest.approx(1e-9, rel=1e-6)
    assert certified == []
