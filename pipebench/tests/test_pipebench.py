"""Tests of the benchmark itself: the checks reject corrupted outputs, the
fiber path used by the checks matches the jellium oracle, the tracer's
arithmetic holds on a fake clock, and the printed metric names are the ones
BENCHMARK.json declares.

Run with ``python3 -m pytest pipebench/tests`` from the repository root.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from tfdw import cauchy_born as cb
from tfdw import jellium
from tfdw.cells import SolveOptions
from tfdw.grids import Grid, GridSpec, ScalarField, State
from tfdw.linop import stability_scan
from tfdw.studies import EpsStudyResult, EpsStudyRow, fit_loglog_slope, measure_stability_in_n, run_legendre_study

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SMALL = (4, 4, 4)  # coarsest grid: the checks' properties hold on it, cheaply


# -- metric names ---------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    declared_e2e = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    declared_layers = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared_e2e == run.END_TO_END
    assert declared_layers == tracing.PER_LAYER

    printed = run.end_to_end_values([1.0, 1.1], [2.0], 100.0)
    assert [(k, v["unit"]) for k, v in printed.items()] == [(n, u) for n, u, _ in declared_e2e]

    tr = tracing.Tracer()
    with tr.frame(tracing.ROOT):
        pass
    printed = tracing.layer_values(tr, 0.0)
    assert [(k, v["unit"]) for k, v in printed.items()] == [(n, u) for n, u, _ in declared_layers]


def test_times_are_scaled_by_the_faster_probe_of_their_kind():
    probes = [{"dense": 0.05, "interp": 0.1}, {"dense": 0.04, "interp": 0.2}]
    reference = {"dense": 0.025, "interp": 0.05}
    assert run.reference_seconds(10.0, probes, "dense", reference) == pytest.approx(6.25)
    assert run.reference_seconds(10.0, probes, "interp", reference) == pytest.approx(5.0)


def test_probe_times_both_kernels():
    from probe import REFERENCE_S, Probe

    times = Probe().measure(repeats=2)
    assert set(times) == set(REFERENCE_S)
    assert all(t > 0 for t in times.values())


def test_workload_names_match_benchmark_json():
    # supercell-stability runs by hand only (see README: run schedule)
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == ["cb-table", "eps-sweep"]
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS) == declared + ["supercell-stability"]


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cb-table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_repeat_for_a_seed_and_vary_across_seeds():
    for wl in workloads.WORKLOADS.values():
        assert wl.inputs(3) == wl.inputs(3)
        assert wl.inputs(3) != wl.inputs(4)


# -- tracer -----------------------------------------------------------------------


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_tracer_self_time_on_a_fake_clock():
    # root [0, 10]: span A [1, 6] holds aggregate g [2, 3] and span B [3, 5],
    # which holds g [4, 4.5]; g [7, 8] runs directly under the root
    tr = tracing.Tracer(FakeClock([0, 1, 2, 3, 3, 4, 4.5, 5, 6, 7, 8, 10]))
    tr.enter(tracing.ROOT)
    tr.enter("A")
    tr.enter("g", record=False)
    tr.exit()
    tr.enter("B")
    tr.enter("g", record=False)
    tr.exit()
    tr.exit()
    tr.exit()
    tr.enter("g", record=False)
    tr.exit()
    tr.exit()

    assert tr.self_time[tracing.ROOT] == pytest.approx(4.0)
    assert tr.self_time["A"] == pytest.approx(2.0)
    assert tr.self_time["B"] == pytest.approx(1.5)
    assert tr.self_time["g"] == pytest.approx(2.5)
    assert tr.inclusive["g"] == pytest.approx(2.5)
    assert tr.calls["g"] == 3
    assert [(s["name"], s["parent"]) for s in tr.spans] == [(tracing.ROOT, None), ("A", 0), ("B", 1)]
    assert [s["self_s"] for s in tr.spans] == pytest.approx([4.0, 2.0, 1.5])

    layers = tracing.layer_values(tr, 9.0)
    assert layers["trace.pipeline_s"]["value"] == pytest.approx(10.0)
    assert layers["trace.overhead_s"]["value"] == pytest.approx(1.0)
    assert layers["trace.unattributed_s"]["value"] == pytest.approx(4.0)
    assert layers["trace.coverage"]["value"] == pytest.approx(0.6)


def test_tracer_counts_nested_calls_of_one_name_once():
    tr = tracing.Tracer(FakeClock([0, 1, 2, 4]))
    tr.enter("X")
    tr.enter("X")
    tr.exit()
    tr.exit()
    assert tr.inclusive["X"] == pytest.approx(4.0)
    assert tr.self_time["X"] == pytest.approx(4.0)
    assert tr.calls["X"] == 2


def test_instrumentation_counts_and_restores(small_solution):
    import tfdw.cells
    import tfdw.linop

    originals = (tfdw.linop.stability_scan, tfdw.cells.stability_scan, tfdw.linop.FiberOperator.__init__)
    xis = [np.zeros(3), 0.25 * small_solution.grid.lattice.reciprocal_vectors[0]]
    tr = tracing.Tracer()
    undo = tracing.instrument(tr)
    try:
        stability_scan(small_solution.state, 0.0, xi_grid=xis, refine=False)  # outside any frame
        assert not tr.calls
        with tr.frame(tracing.ROOT):
            tfdw.linop.stability_scan(small_solution.state, 0.0, xi_grid=xis, refine=False)
    finally:
        tracing.restore(undo)
    assert (tfdw.linop.stability_scan, tfdw.cells.stability_scan, tfdw.linop.FiberOperator.__init__) == originals
    dim = 3 * small_solution.grid.total_points
    values = {k: v["value"] for k, v in tracing.layer_values(tr, 0.0).items()}
    assert values["linop.eigensolves"] == 2
    assert values["linop.fiber_builds"] == 2
    assert values["linop.max_fiber_dim"] == dim
    assert values["linop.eigensolve_work_gn3"] == pytest.approx(2 * dim**3 / 1e9)
    assert values["linop.refine_evaluations"] == 0
    assert values["trace.coverage"] > 0.9


# -- fiber path against the jellium oracle ------------------------------------------


@pytest.mark.parametrize("nu0", [0.3, 1.0])
def test_fiber_gaps_match_jellium_closed_form(nu0):
    params = jellium.JelliumParams(nu0)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    state = jellium.jellium_state(params, grid)
    b1, b2 = lat.reciprocal_vectors[0], lat.reciprocal_vectors[1]
    xis = [np.zeros(3), 0.3 * b1, 0.2 * b1 + 0.4 * b2]
    numeric = checks.fiber_gaps(state, 0.0, xis)
    for xi, gap in zip(xis, numeric):
        closed = [
            abs(lam)
            for k in zip(*(k.ravel() for k in grid.k_cart))
            for lam in jellium.eigenvalues(params, np.asarray(k) + xi)
        ]
        assert gap == pytest.approx(min(closed), abs=1e-9)


# -- checks reject corrupted outputs --------------------------------------------------


@pytest.fixture(scope="module")
def lattice():
    return workloads.workhorse_lattice()


@pytest.fixture(scope="module")
def small_solution(lattice):
    from tfdw.cells import solve_cell

    return solve_cell(lattice, GridSpec(SMALL), 0.0, "uniform", SolveOptions())


@pytest.fixture(scope="module")
def cb_outputs(lattice, tmp_path_factory):
    table = cb.build_cb_table(lattice, GridSpec(SMALL), h_range=0.05, step=0.0125, opts=SolveOptions())
    directory = tmp_path_factory.mktemp("table")
    cb.save_table(directory, table)
    loaded = cb.load_table(directory)
    rows, _ = run_legendre_study(loaded, [-0.03, 0.01, 0.035])
    return table, loaded, rows


def _cb_check(outputs):
    table, loaded, rows = outputs
    return checks.check_cb_table(table, loaded, rows, SolveOptions().tol, 1e-6)


def test_cb_checks_pass_on_clean_output(cb_outputs):
    assert _cb_check(cb_outputs) == []


def _replace_state(table, i, **fields):
    s = table.solutions[i]
    new_state = State(
        *(ScalarField(s.grid, fields.get(tag, getattr(s.state, tag).values)) for tag in ("nu_plus", "nu_minus", "V")),
        s.state.gauge,
    )
    table.solutions[i] = dataclasses.replace(s, state=new_state)


def corrupt_residual(t, loaded, rows):
    _replace_state(loaded, 1, nu_plus=loaded.solutions[1].state.nu_plus.values * (1 + 1e-6))


def corrupt_last_bit(t, loaded, rows):
    v = loaded.dudh[2].V.values.copy()
    v.view(np.int64).flat[5] ^= 1
    loaded.dudh[2] = State(loaded.dudh[2].nu_plus, loaded.dudh[2].nu_minus, ScalarField(loaded.grid, v), loaded.dudh[2].gauge)


def corrupt_spin_flip(t, loaded, rows):
    loaded.E_CB[0] *= 1 + 1e-8
    t.E_CB[0] = loaded.E_CB[0]


def corrupt_hellmann_feynman(t, loaded, rows):
    loaded.m_tot *= 1 + 1e-5
    t.m_tot *= 1 + 1e-5


def corrupt_legendre(t, loaded, rows):
    rows[1] = dataclasses.replace(rows[1], legendre_value=rows[1].legendre_value * (1 + 3e-6))


def corrupt_gap(t, loaded, rows):
    loaded.gaps[3] = 1e-7
    t.gaps[3] = 1e-7


def corrupt_anchor_gap(t, loaded, rows):
    a = loaded.anchor_index()
    loaded.gaps[a] *= 1.01
    t.gaps[a] = loaded.gaps[a]


@pytest.mark.parametrize(
    "corrupt, check",
    [
        (corrupt_residual, "residuals_within"),
        (corrupt_last_bit, "fields_identical"),
        (corrupt_spin_flip, "spin_flip"),
        (corrupt_hellmann_feynman, "hellmann_feynman"),
        (corrupt_legendre, "legendre"),
        (corrupt_gap, "certified_gaps"),
        (corrupt_anchor_gap, "certified_gaps"),
    ],
)
def test_cb_checks_fail_on_corrupted_output(cb_outputs, corrupt, check):
    table, loaded, rows = copy.deepcopy(cb_outputs)
    corrupt(table, loaded, rows)
    single = {
        "residuals_within": lambda: checks.residuals_within(loaded, SolveOptions().tol),
        "fields_identical": lambda: checks.fields_identical(table, loaded),
        "spin_flip": lambda: checks.spin_flip(loaded),
        "hellmann_feynman": lambda: checks.hellmann_feynman(loaded),
        "legendre": lambda: checks.legendre(loaded, rows),
        "certified_gaps": lambda: checks.certified_gaps(loaded, 1e-6),
    }
    assert single[check]() != []
    assert _cb_check((table, loaded, rows)) != []


def _eps_result():
    """Rows following the orders the acceptance suite measures."""
    rows = []
    for n in (4, 6, 8, 12, 16):
        e = 1.0 / n
        rows.append(
            EpsStudyRow(
                n=n, eps=e, ansatz_residual=2.0 * e**4, newton_distance_u0=3.0 * e**4.3,
                cb_distance=0.5 * e**2.3, contraction_max=0.08 * e, ansatz_residual_first_order=e**2,
            )
        )
    return _with_slopes(rows)


def _with_slopes(rows):
    eps = [r.eps for r in rows]
    slopes = {k: fit_loglog_slope(eps, [getattr(r, k) for r in rows]) for k in (
        "ansatz_residual", "newton_distance_u0", "cb_distance", "ansatz_residual_first_order")}
    slopes["drop_largest"] = True
    return EpsStudyResult(rows=rows, slopes=slopes)


def test_eps_checks_pass_on_clean_output():
    assert checks.check_eps_sweep(_eps_result()) == []


@pytest.mark.parametrize(
    "field, value, slope",
    [
        ("converged", False, None),
        ("contraction_max", 0.6, None),
        ("ansatz_residual", None, 2.0),               # C6 residual slope
        ("ansatz_residual_first_order", None, 3.8),   # C6 degradation
        ("cb_distance", None, 0.5),                   # C8
        ("newton_distance_u0", None, 2.0),            # C8
    ],
)
def test_eps_checks_fail_on_corrupted_output(field, value, slope):
    res = _eps_result()
    if value is not None:
        res.rows[-1] = dataclasses.replace(res.rows[-1], **{field: value})
    else:
        res = _with_slopes([dataclasses.replace(r, **{field: r.eps**slope}) for r in res.rows])
    assert checks.check_eps_sweep(res) != []


def test_eps_checks_fail_when_reported_slope_disagrees_with_rows():
    res = _eps_result()
    res.rows[1] = dataclasses.replace(res.rows[1], cb_distance=res.rows[1].cb_distance * 1.01)
    assert checks.check_eps_sweep(res) != []


@pytest.fixture(scope="module")
def stability_outputs(lattice):
    # the workload's resolution: with 4 points along x1 the folded supercell
    # fibers miss the cell fibers' Nyquist modes and M(2) moves by ~7e-8
    h = 0.02
    reports, sol = measure_stability_in_n(lattice, workloads.RESOLUTION, n_values=(1, 2), n_xi=4, h_value=h)
    b1 = lattice.reciprocal_vectors[0]
    return reports, sol, h, [(j / 4) * b1 for j in range(4)]


def test_stability_checks_pass_on_clean_output(stability_outputs):
    assert checks.check_supercell_stability(*stability_outputs) == []


@pytest.mark.parametrize("corruption", ["M", "classification", "fibers"])
def test_stability_checks_fail_on_corrupted_output(stability_outputs, corruption):
    reports, sol, h, xis = copy.deepcopy(stability_outputs)
    rep = reports[2]
    if corruption == "M":
        reports[2] = dataclasses.replace(rep, M=rep.M * (1 + 1e-7))
    elif corruption == "classification":
        reports[2] = dataclasses.replace(rep, classification="sdw_unstable")
    else:
        reports[2] = dataclasses.replace(rep, fiber_records=rep.fiber_records[:-1])
    assert checks.check_supercell_stability(reports, sol, h, xis) != []
