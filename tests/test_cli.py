import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from tfdw import cauchy_born, cli
from tfdw.cells import SolveOptions
from tfdw.errors import DescentFailureError, DivergenceError, EigensolverError, LinearSolveError
from tfdw.newton import NewtonOptions


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


LATTICE = {
    "cell_vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "Z": 3.0,
    "rho_b_modes": [{"m": [1, 0, 0], "amp": 0.15}],
}


@pytest.mark.parametrize("section, options", [("solver", SolveOptions), ("newton", NewtonOptions)])
def test_option_schema_keys_are_dataclass_fields(section, options):
    # the CLI builds its options as options(**cfg[section], seed=seed)
    keys = set(cli.CONFIG_SCHEMA["properties"][section]["properties"])
    fields = {f.name for f in dataclasses.fields(options)}
    assert keys <= fields - {"seed"}


# the sections as the schema spelled them out before they were generated
# from the options dataclasses
SOLVER_SECTION = {
    "type": "object",
    "properties": {
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "phase1_tol": {"type": "number", "exclusiveMinimum": 0},
        "phase1_maxiter": {"type": "integer", "minimum": 1},
        "newton_maxiter": {"type": "integer", "minimum": 1},
        "nu_floor": {"type": "number"},
        "perturbation": {"type": "number"},
    },
    "additionalProperties": False,
}
NEWTON_SECTION = {
    "type": "object",
    "properties": {
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "maxiter": {"type": "integer", "minimum": 1},
        "inner_factor": {"type": "number", "exclusiveMinimum": 0},
        "refresh_jacobian": {"type": "boolean"},
        "check_gap": {"type": "boolean"},
    },
    "additionalProperties": False,
}


@pytest.mark.parametrize("section, literal", [("solver", SOLVER_SECTION), ("newton", NEWTON_SECTION)])
def test_option_schema_sections_keep_their_keys_types_and_bounds(section, literal):
    generated = cli.CONFIG_SCHEMA["properties"][section]
    assert json.dumps(generated, sort_keys=True) == json.dumps(literal, sort_keys=True)
    assert not {"seed", "c_nu"} & set(generated["properties"])


def test_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["solve-cell", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "command, section",
    [
        ("solve-cell", "lattice"),
        ("solve-cell", "grid"),
        ("cb-table", "cb"),
        ("two-scale-build", "two_scale"),
        ("eps-study", "eps"),
        ("eps-study", "cb"),
        ("legendre-check", "legendre"),
    ],
)
def test_missing_section_exits_2(tmp_path, capsys, command, section):
    full = {
        "lattice": LATTICE,
        "grid": {"resolution": [8, 4, 4]},
        "cb": {"h_range": 0.1, "step": 0.05},
        "two_scale": {"n": 4},
        "eps": {"n_values": [4, 8]},
        "legendre": {"h_values": [0.05]},
    }
    cfg = write_config(tmp_path, {k: v for k, v in full.items() if k != section})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ConfigError"
    assert f"'{section}'" in payload["message"]


def _latin1_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"out": "caf\xe9"}')
    return str(path)


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp_path: str(tmp_path),
        _latin1_config,
        # json.dumps writes the non-JSON literals NaN and Infinity
        lambda tmp_path: write_config(
            tmp_path, {"lattice": {**LATTICE, "cell_vectors": [[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]]}}
        ),
        lambda tmp_path: write_config(
            tmp_path, {"lattice": LATTICE, "grid": {"resolution": [8, 4, 4]}, "cell": {"h_value": float("inf")}}
        ),
    ],
    ids=["a-directory", "not-utf-8", "nan-cell-vector", "infinite-field"],
)
def test_unreadable_config_exits_2(tmp_path, capsys, make):
    # a config that cannot be read, decoded or parsed as JSON (NaN and
    # Infinity are not JSON) is a configuration error, not a traceback or a
    # solver failure
    rc = cli.main(["solve-cell", "--config", make(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ConfigError"
    assert str(tmp_path) in payload["message"]


def test_schema_violation_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"resolution": [8, 4]}})
    rc = cli.main(["solve-cell", "--config", cfg])
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ConfigError"
    assert "schema" in payload["message"]


@pytest.mark.parametrize(
    "section, key, value", [("grid", "supercell", [2, 1, 1]), ("two_scale", "include_second", False)]
)
def test_keys_no_command_reads_are_schema_violations(tmp_path, capsys, section, key, value):
    base = {"grid": {"resolution": [8, 4, 4]}, "two_scale": {"n": 4}}
    cfg = write_config(tmp_path, {**base, section: {**base[section], key: value}})
    assert cli.main(["two-scale-build", "--config", cfg]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ConfigError"
    assert key in payload["message"]


def test_solver_error_exits_3(tmp_path, capsys):
    # step does not divide the range: structural solver-side failure
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "lattice": LATTICE,
            "grid": {"resolution": [8, 4, 4]},
            "cb": {"h_range": 0.05, "step": 0.03},
        },
    )
    rc = cli.main(["cb-table", "--config", cfg])
    assert rc == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "StructuralError"


def test_continuation_stop_payload_exits_3(tmp_path, capsys, monkeypatch):
    # the corrector fails at the second step of the march (h = 0.05): the
    # error JSON carries the last good h and the accepted samples' h and gaps
    polish = cauchy_born.newton_polish
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 2:
            raise DivergenceError("forced stall")
        return polish(*args, **kwargs)

    monkeypatch.setattr(cauchy_born, "newton_polish", fail_second)
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "lattice": LATTICE,
            "grid": {"resolution": [8, 4, 4]},
            "cb": {"h_range": 0.05, "step": 0.025},
            "stability": {"xi_density": [2, 1, 1]},
        },
    )
    rc = cli.main(["cb-table", "--config", cfg])
    assert rc == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ContinuationStopError"
    assert "forced stall" in payload["message"]
    assert payload["last_good_h"] == 0.025
    assert payload["partial"]["h_values"] == [0.0, 0.025]
    gaps = payload["partial"]["gaps"]
    assert len(gaps) == 2 and all(0.5 < g < 0.7 for g in gaps)


@pytest.mark.parametrize(
    "error, key, value",
    [
        (EigensolverError("stopped", residual_history=[1e-3, 2e-4]), "residual_history", [1e-3, 2e-4]),
        (DescentFailureError("stalled", energy_trace=[-1.0, -0.5]), "energy_trace", [-1.0, -0.5]),
        (LinearSolveError("broke down", gap_estimate=0.25), "gap_estimate", 0.25),
    ],
    ids=["residual_history", "energy_trace", "gap_estimate"],
)
def test_error_payload_carries_diagnostics(tmp_path, capsys, monkeypatch, error, key, value):
    def failing(*args):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "solve-cell", failing)
    cfg = write_config(tmp_path, {"out": str(tmp_path / "out")})
    assert cli.main(["solve-cell", "--config", cfg]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == type(error).__name__
    assert payload[key] == value


@pytest.mark.parametrize(
    "h_value, error",
    [(1e200, "DescentFailureError"), (4e152, "DescentFailureError"), (1e10, "PositivityLossError")],
    ids=["gradient-overflow", "trial-overflow", "large"],
)
def test_solve_cell_names_a_field_too_large(tmp_path, capsys, h_value, error):
    # a field that overflows phase 1 (its projected gradient at 1e200, its
    # first trial density at 4e152) stops the descent naming h, without a
    # floating-point warning; a merely large one loses positivity in Newton,
    # which names h too
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "lattice": LATTICE,
            "grid": {"resolution": [8, 4, 4]},
            "cell": {"h_value": h_value},
        },
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["solve-cell", "--config", cfg]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == error
    assert f"h = {h_value:.3e}" in payload["message"]
    if error == "DescentFailureError":
        assert payload["energy_trace"] and all(np.isfinite(payload["energy_trace"]))
    else:
        assert payload["h_value"] == h_value and payload["iteration"] >= 1


def test_jellium_scan_threshold(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "jellium": {"nu0_min": 0.1, "nu0_max": 1.0, "nu0_count": 10, "xi_max": 2.0, "xi_count": 5},
        },
    )
    assert cli.main(["jellium-scan", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "jellium_threshold.json").read_text())
    assert payload["sdw_threshold_estimate"] == pytest.approx((2 / 5) ** 1.5, abs=1e-8)
    assert payload["cdw_condition_at_threshold"] is True
    lines = (tmp_path / "out" / "jellium_sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "nu0,xi,lambda_1,lambda_plus,lambda_minus"
    assert len(lines) == 51


def test_solve_cell_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "lattice": LATTICE,
            "grid": {"resolution": [8, 4, 4]},
            "cell": {"h_value": 0.0},
        },
    )
    assert cli.main(["solve-cell", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["residual_norm"] <= 1e-11
    assert (tmp_path / "out" / "cell_solution_nu_plus.tfw").exists()


def test_stability_scan_jellium(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "grid": {"resolution": [4, 4, 4]},
            "stability": {"source": "jellium", "xi_density": [2, 2, 2], "refine": False},
            "jellium": {"nu0": 0.5},
        },
    )
    assert cli.main(["stability-scan", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "stability_report.json").read_text())
    assert report["classification"] == "stable"
    lines = (tmp_path / "out" / "fiber_gaps.csv").read_text().strip().split("\n")
    assert lines[0] == "xi1,xi2,xi3,gap,class"


def test_pipeline_table_twoscale_newton(tmp_path):
    base = {
        "lattice": LATTICE,
        "grid": {"resolution": [8, 4, 4]},
        "h": {"modes": [{"m": [1, 0, 0], "amp": 0.05}]},
        "cb": {"h_range": 0.06, "step": 0.02, "verify_samples": False},
        "stability": {"xi_density": [2, 1, 1]},
    }
    cfg_table = write_config(tmp_path, {**base, "out": str(tmp_path / "t")}, "t.json")
    assert cli.main(["cb-table", "--config", cfg_table]) == 0
    table_dir = str(tmp_path / "t" / "cb_table")
    assert os.path.exists(os.path.join(table_dir, "table.json"))

    cfg_ts = write_config(
        tmp_path,
        {**base, "out": str(tmp_path / "ts"), "two_scale": {"n": 4, "table_dir": table_dir}},
        "ts.json",
    )
    assert cli.main(["two-scale-build", "--config", cfg_ts]) == 0
    manifest = json.loads((tmp_path / "ts" / "u0.json").read_text())
    assert manifest["eps"] == 0.25
    assert manifest["ansatz_residual"] < 0.5  # n = 4 is pre-asymptotic

    cfg_nw = write_config(
        tmp_path,
        {**base, "out": str(tmp_path / "nw"), "two_scale": {"n": 4, "table_dir": table_dir}},
        "nw.json",
    )
    assert cli.main(["newton-study", "--config", cfg_nw]) == 0
    trace = json.loads((tmp_path / "nw" / "newton_summary.json").read_text())
    assert trace["converged"] is True
    lines = (tmp_path / "nw" / "newton_trace.csv").read_text().strip().split("\n")
    assert lines[0] == "step,residual,increment,ratio"


def test_damaged_table_exits_3(tmp_path, capsys, cb_table):
    # a table whose field file lost its last bytes: the two-scale commands
    # answer with the error JSON instead of a traceback
    table_dir = tmp_path / "table"
    cauchy_born.save_table(table_dir, cb_table)
    damaged = table_dir / "sample_000_nu_plus.tfw"
    damaged.write_bytes(damaged.read_bytes()[:-3])
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "lattice": LATTICE,
            "grid": {"resolution": [8, 4, 4]},
            "h": {"modes": [{"m": [1, 0, 0], "amp": 0.05}]},
            "two_scale": {"n": 4, "table_dir": str(table_dir)},
        },
    )
    for command in ("two-scale-build", "newton-study"):
        assert cli.main([command, "--config", cfg]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "StructuralError"
        assert "sample_000_nu_plus.tfw" in payload["message"]


def test_missing_table_dir_exits_3(tmp_path, capsys):
    # a table directory that does not exist answers with the error JSON
    # naming the path, not with a traceback
    missing = tmp_path / "no_table"
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "lattice": LATTICE,
            "grid": {"resolution": [8, 4, 4]},
            "two_scale": {"n": 4, "table_dir": str(missing)},
        },
    )
    assert cli.main(["two-scale-build", "--config", cfg]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "StructuralError"
    assert str(missing) in payload["message"]


def _without(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


def _with(key, change):
    return lambda text: json.dumps({**json.loads(text), key: change(json.loads(text)[key])})


def _header_with(key, value):
    # a .tfw file read as Latin-1 text, which keeps every payload byte
    def damage(text):
        header, _, payload = text.partition("\n")
        return json.dumps({**json.loads(header), key: value}) + "\n" + payload

    return damage


@pytest.mark.parametrize(
    "name, damage",
    [
        ("table.json", lambda text: '{"lattice": '),
        ("table.json", lambda text: "[]"),
        ("table.json", _without("c_nu")),
        ("sample_001.json", _without("gauge")),
        ("dudh_002.json", lambda text: json.dumps({**json.loads(text), "fields": {"V": "dudh_002_V.tfw"}})),
        ("table.json", _with("h_samples", lambda v: "0.0")),
        ("table.json", _with("E_CB", lambda v: ["x"] + v[1:])),
        ("table.json", _with("m_tot", lambda v: [None] + v[1:])),
        ("table.json", _with("gaps", lambda v: [True] + v[1:])),
        ("table.json", _with("residual_norms", lambda v: v[:2])),
        ("table.json", _with("c_nu", lambda v: str(v))),
        ("table.json", _with("h_samples", lambda v: v[::-1])),
        ("table.json", _with("h_samples", lambda v: v[:-1] + [v[-1] + 0.01])),
        ("table.json", _with("E_CB", lambda v: [float("nan")] + v[1:])),
        ("table.json", _with("c_nu", lambda v: float("inf"))),
        ("table.json", _with("lattice", lambda v: {})),
        ("table.json", _with("lattice", lambda v: "x")),
        ("table.json", _with("resolution", lambda v: "abc")),
        ("table.json", _with("lattice", lambda v: {**v, "rho_b_modes": [{"m": [1, 0, 0], "amp": "x"}]})),
        ("sample_002_V.tfw", _header_with("lattice", [1])),
    ],
    ids=[
        "truncated", "not-an-object", "table-missing-key", "state-missing-key", "fields-missing-key",
        "h-samples-not-a-list", "energy-not-numbers", "m-holds-null", "gaps-not-numbers",
        "residual-norms-short", "c-nu-not-a-number", "h-samples-decreasing", "h-samples-asymmetric",
        "energy-holds-nan", "c-nu-infinite", "lattice-empty", "lattice-not-an-object",
        "resolution-not-integers", "mode-amplitude-not-a-number", "header-lattice-a-list",
    ],
)
def test_damaged_manifest_exits_3(tmp_path, capsys, cb_table, name, damage):
    # a table whose JSON manifests or field headers are cut, lack a key or
    # hold a malformed grid descriptor: two-scale-build answers with the
    # StructuralError JSON naming the file instead of a traceback
    table_dir = tmp_path / "table"
    cauchy_born.save_table(table_dir, cb_table)
    manifest = table_dir / name
    manifest.write_text(damage(manifest.read_text("latin-1")), "latin-1")
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "lattice": LATTICE,
            "grid": {"resolution": [8, 4, 4]},
            "h": {"modes": [{"m": [1, 0, 0], "amp": 0.05}]},
            "two_scale": {"n": 4, "table_dir": str(table_dir)},
        },
    )
    assert cli.main(["two-scale-build", "--config", cfg]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "StructuralError"
    assert name in payload["message"]


def test_eps_study_csv_columns(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "lattice": LATTICE,
            "grid": {"resolution": [8, 4, 4]},
            "h": {"modes": [{"m": [1, 0, 0], "amp": 0.05}]},
            "cb": {"h_range": 0.06, "step": 0.02, "verify_samples": False},
            "eps": {"n_values": [2, 4]},
        },
    )
    assert cli.main(["eps-study", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "eps_study.csv").read_text().strip().split("\n")
    assert lines[0] == "n,eps,ansatz_residual,newton_distance_u0,cb_distance,contraction_max"
    assert len(lines) == 3
    slopes = json.loads((tmp_path / "out" / "eps_slopes.json").read_text())
    assert "ansatz_residual" in slopes


def test_legendre_check_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "lattice": LATTICE,
            "grid": {"resolution": [8, 4, 4]},
            "cb": {"h_range": 0.06, "step": 0.02, "verify_samples": False},
            "legendre": {"h_values": [0.03], "m_count": 7},
        },
    )
    assert cli.main(["legendre-check", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "legendre_summary.json").read_text())
    assert payload["max_rel_err"] <= 1e-6


def test_eps_study_slopes_are_null_where_the_distances_vanish(tmp_path):
    # under a constant field u0 is exact and Newton takes no step, so both
    # distances are exactly 0 and both ansatz residuals are roundoff (about
    # 1e-13): all four slopes are null, never NaN or an order fitted to
    # roundoff, and no log(0) warning is raised
    def no_constant(name):
        raise AssertionError(f"{name} in eps_slopes.json")

    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "lattice": LATTICE,
            "grid": {"resolution": [8, 4, 4]},
            "h": {"value": 0.01},
            "cb": {"h_range": 0.02, "step": 0.01},
            "eps": {"n_values": [2, 4, 6]},
        },
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["eps-study", "--config", cfg]) == 0
    slopes = json.loads((tmp_path / "out" / "eps_slopes.json").read_text(), parse_constant=no_constant)
    assert slopes["newton_distance_u0"] is None and slopes["cb_distance"] is None
    assert slopes["ansatz_residual"] is None and slopes["ansatz_residual_first_order"] is None


def test_eps_study_honors_the_stability_section(tmp_path, capsys):
    # a threshold above the workhorse gap (about 0.59) refuses the anchor in
    # every command that builds a table
    cfg = write_config(
        tmp_path,
        {
            "out": str(tmp_path / "out"),
            "lattice": LATTICE,
            "grid": {"resolution": [8, 4, 4]},
            "h": {"modes": [{"m": [1, 0, 0], "amp": 0.01}]},
            "cb": {"h_range": 0.02, "step": 0.01, "verify_samples": False},
            "eps": {"n_values": [2, 4]},
            "stability": {"threshold": 0.7},
        },
    )
    for command in ("cb-table", "eps-study"):
        assert cli.main([command, "--config", cfg]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "StabilityGapError"
