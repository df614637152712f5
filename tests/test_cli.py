import json
import os

import numpy as np
import pytest

from tfdw import cauchy_born, cli
from tfdw.errors import DescentFailureError, DivergenceError, EigensolverError, LinearSolveError


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


LATTICE = {
    "cell_vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "Z": 3.0,
    "rho_b_modes": [{"m": [1, 0, 0], "amp": 0.15}],
}


def test_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["solve-cell", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ConfigError"


def test_schema_violation_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"resolution": [8, 4]}})
    rc = cli.main(["solve-cell", "--config", cfg])
    assert rc == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ConfigError"
    assert "schema" in payload["message"]


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
