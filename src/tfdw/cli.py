"""Command-line surface: JSON configs in, CSV/JSON reports out.

Commands map one-to-one onto module pipelines; the CLI never computes
numbers itself beyond the shared log-log slope fit.  All outputs are written
atomically with 17-significant-digit floats, so identical configs and seeds
give byte-identical files.

Exit codes: 0 success, 2 configuration/schema violation, 3 solver failure
(with a machine-readable error JSON on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from . import cauchy_born as cb
from . import fieldio, jellium
from . import studies
from . import twoscale as ts
from .cells import SolveOptions, save_solution, solve_cell, verify_minimizer
from .errors import ConfigError, TfdwError
from .grids import Grid, GridSpec, HField, LatticeSpec, Mode
from .linop import monkhorst_pack
from .newton import NewtonOptions, newton_solve
from .residual import residual

_MODE = {
    "type": "object",
    "properties": {
        "m": {"type": "array", "items": {"type": "integer"}, "minItems": 3, "maxItems": 3},
        "amp": {"type": "number"},
        "phase": {"type": "number"},
    },
    "required": ["m", "amp"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "out": {"type": "string"},
        "seed": {"type": "integer"},
        "threads": {"type": "integer", "minimum": 1},
        "lattice": {
            "type": "object",
            "properties": {
                "cell_vectors": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
                    "minItems": 3,
                    "maxItems": 3,
                },
                "Z": {"type": "number", "exclusiveMinimum": 0},
                "rho_b_modes": {"type": "array", "items": _MODE},
            },
            "required": ["cell_vectors", "Z"],
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {
                "resolution": {"type": "array", "items": {"type": "integer"}, "minItems": 3, "maxItems": 3},
                "supercell": {"type": "array", "items": {"type": "integer"}, "minItems": 3, "maxItems": 3},
            },
            "required": ["resolution"],
            "additionalProperties": False,
        },
        "h": {
            "type": "object",
            "properties": {"value": {"type": "number"}, "modes": {"type": "array", "items": _MODE}},
            "additionalProperties": False,
        },
        "solver": {
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
        },
        "newton": {
            "type": "object",
            "properties": {
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "maxiter": {"type": "integer", "minimum": 1},
                "inner_factor": {"type": "number", "exclusiveMinimum": 0},
                "refresh_jacobian": {"type": "boolean"},
                "check_gap": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "stability": {
            "type": "object",
            "properties": {
                "xi_density": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 3, "maxItems": 3},
                "threshold": {"type": "number", "exclusiveMinimum": 0},
                "refine": {"type": "boolean"},
                "source": {"enum": ["cell", "jellium"]},
            },
            "additionalProperties": False,
        },
        "cb": {
            "type": "object",
            "properties": {
                "h_range": {"type": "number", "exclusiveMinimum": 0},
                "step": {"type": "number", "exclusiveMinimum": 0},
                "verify_samples": {"type": "boolean"},
            },
            "required": ["h_range", "step"],
            "additionalProperties": False,
        },
        "two_scale": {
            "type": "object",
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "table_dir": {"type": "string"},
                "include_second": {"type": "boolean"},
            },
            "required": ["n"],
            "additionalProperties": False,
        },
        "eps": {
            "type": "object",
            "properties": {
                "n_values": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 2},
                "drop_largest": {"type": "boolean"},
            },
            "required": ["n_values"],
            "additionalProperties": False,
        },
        "legendre": {
            "type": "object",
            "properties": {
                "h_values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "m_count": {"type": "integer", "minimum": 3},
                "m_margin": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
            "required": ["h_values"],
            "additionalProperties": False,
        },
        "jellium": {
            "type": "object",
            "properties": {
                "nu0": {"type": "number", "exclusiveMinimum": 0},
                "nu0_min": {"type": "number", "exclusiveMinimum": 0},
                "nu0_max": {"type": "number", "exclusiveMinimum": 0},
                "nu0_count": {"type": "integer", "minimum": 2},
                "xi_max": {"type": "number", "exclusiveMinimum": 0},
                "xi_count": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
        "cell": {
            "type": "object",
            "properties": {
                "h_value": {"type": "number"},
                "init": {"enum": ["uniform", "perturbed"]},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    import jsonschema

    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    return cfg


def _modes(entries):
    return [Mode(tuple(e["m"]), e["amp"], e.get("phase", 0.0)) for e in entries or []]


def _lattice(cfg):
    if "lattice" not in cfg:
        raise ConfigError("this command needs a 'lattice' section")
    lat = cfg["lattice"]
    return LatticeSpec(np.array(lat["cell_vectors"], dtype=float), lat["Z"], _modes(lat.get("rho_b_modes")))


def _resolution(cfg):
    if "grid" not in cfg:
        raise ConfigError("this command needs a 'grid' section")
    return tuple(cfg["grid"]["resolution"])


def _h_field(cfg):
    h = cfg.get("h", {})
    return HField(h.get("value", 0.0), _modes(h.get("modes")))


def _solve_opts(cfg, seed):
    s = cfg.get("solver", {})
    return SolveOptions(
        tol=s.get("tol", 1e-11),
        phase1_tol=s.get("phase1_tol", 1e-3),
        phase1_maxiter=s.get("phase1_maxiter", 800),
        newton_maxiter=s.get("newton_maxiter", 50),
        nu_floor=s.get("nu_floor", 1e-8),
        seed=seed,
        perturbation=s.get("perturbation", 1e-3),
    )


def _newton_opts(cfg, seed):
    s = cfg.get("newton", {})
    return NewtonOptions(
        tol=s.get("tol", 1e-10),
        maxiter=s.get("maxiter", 30),
        inner_factor=s.get("inner_factor", 0.01),
        refresh_jacobian=s.get("refresh_jacobian", False),
        check_gap=s.get("check_gap", False),
        seed=seed,
    )


def _stability(cfg, lattice):
    s = cfg.get("stability", {})
    xi_grid = monkhorst_pack(lattice, tuple(s.get("xi_density", [2, 2, 2])))
    return xi_grid, s.get("threshold", 1e-6), s.get("refine", True)


def _write_json(path, payload):
    fieldio.atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def _build_table(cfg, lattice, opts, out):
    c = cfg.get("cb")
    if c is None:
        raise ConfigError("this command needs a 'cb' section")
    xi_grid, threshold, _ = _stability(cfg, lattice)
    table = cb.build_cb_table(
        lattice,
        GridSpec(_resolution(cfg)),
        h_range=c["h_range"],
        step=c["step"],
        opts=opts,
        stability_threshold=threshold,
        stability_xi_grid=xi_grid,
        verify_samples=c.get("verify_samples", True),
    )
    return table


# -- commands -----------------------------------------------------------------


def cmd_solve_cell(cfg, out, seed, threads, verbose):
    lattice = _lattice(cfg)
    opts = _solve_opts(cfg, seed)
    cell_cfg = cfg.get("cell", {})
    sol = solve_cell(
        lattice, GridSpec(_resolution(cfg)), cell_cfg.get("h_value", 0.0), cell_cfg.get("init", "uniform"), opts
    )
    save_solution(out, "cell_solution", sol)
    summary = {
        "h_value": sol.h_value,
        "residual_norm": sol.residual_norm,
        "energy_total": sol.energy.total,
        "min_nu": sol.min_nu,
        "phase1_iterations": sol.phase1_iterations,
        "newton_iterations": sol.newton_iterations,
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    if verbose:
        print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_jellium_scan(cfg, out, seed, threads, verbose):
    j = cfg.get("jellium", {})
    nu0_values = np.linspace(j.get("nu0_min", 0.1), j.get("nu0_max", 1.0), j.get("nu0_count", 19))
    xi_values = np.linspace(0.0, j.get("xi_max", 3.0), j.get("xi_count", 13))
    rows = jellium.sweep_table(nu0_values, xi_values)
    jellium.write_sweep_csv(os.path.join(out, "jellium_sweep.csv"), rows)
    estimate = jellium.sdw_threshold_bisection(
        float(np.min(nu0_values)), float(np.max(nu0_values))
    )
    payload = {
        "sdw_threshold_estimate": estimate,
        "sdw_threshold_closed_form": jellium.sdw_threshold(),
        "cdw_condition_at_threshold": jellium.cdw_condition(
            jellium.JelliumParams(jellium.sdw_threshold() + 1e-12)
        ),
    }
    _write_json(os.path.join(out, "jellium_threshold.json"), payload)
    if verbose:
        print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_stability_scan(cfg, out, seed, threads, verbose):
    s = cfg.get("stability", {})
    if s.get("source", "cell") == "jellium":
        params = jellium.JelliumParams(cfg.get("jellium", {}).get("nu0", 0.5))
        lattice = jellium.jellium_lattice(params)
        grid = Grid(lattice, GridSpec(_resolution(cfg)))
        state = jellium.jellium_state(params, grid)
        h_value = 0.0
    else:
        lattice = _lattice(cfg)
        opts = _solve_opts(cfg, seed)
        cell_cfg = cfg.get("cell", {})
        h_value = cell_cfg.get("h_value", 0.0)
        sol = solve_cell(lattice, GridSpec(_resolution(cfg)), h_value, cell_cfg.get("init", "uniform"), opts)
        state = sol.state
    xi_grid, threshold, refine = _stability(cfg, lattice)
    from .linop import stability_scan as scan

    report = scan(state, h_value, xi_grid=xi_grid, threshold=threshold, refine=refine)
    fieldio.atomic_write_text(os.path.join(out, "stability_report.json"), report.to_json())
    report.write_csv(os.path.join(out, "fiber_gaps.csv"))
    if verbose:
        print(report.to_json())
    return 0


def cmd_cb_table(cfg, out, seed, threads, verbose):
    lattice = _lattice(cfg)
    opts = _solve_opts(cfg, seed)
    table = _build_table(cfg, lattice, opts, out)
    cb.save_table(os.path.join(out, "cb_table"), table)
    cb.export_curves_csv(table, os.path.join(out, "cb_curves.csv"))
    if verbose:
        print(f"tabulated {len(table.h_samples)} samples over [{table.h_min}, {table.h_max}]")
    return 0


def cmd_two_scale_build(cfg, out, seed, threads, verbose):
    lattice = _lattice(cfg)
    opts = _solve_opts(cfg, seed)
    tcfg = cfg.get("two_scale")
    if tcfg is None:
        raise ConfigError("this command needs a 'two_scale' section")
    if "table_dir" in tcfg:
        table = cb.load_table(tcfg["table_dir"])
    else:
        table = _build_table(cfg, lattice, opts, out)
    n = tcfg["n"]
    grid_n = Grid(lattice, GridSpec(_resolution(cfg), (n, 1, 1)))
    h_field = _h_field(cfg)
    u0, cs = ts.build_u0(table, h_field, grid_n, 1.0 / n, include_second=tcfg.get("include_second", True))
    res = residual(u0, h_field.sample(grid_n, 1.0 / n)).norm_l2n()
    ts.save_u0(out, "u0", u0, cs, {"ansatz_residual": res})
    if verbose:
        print(f"n = {n}: ansatz residual {res:.6e}")
    return 0


def cmd_newton_study(cfg, out, seed, threads, verbose):
    lattice = _lattice(cfg)
    opts = _solve_opts(cfg, seed)
    tcfg = cfg.get("two_scale")
    if tcfg is None:
        raise ConfigError("this command needs a 'two_scale' section")
    if "table_dir" in tcfg:
        table = cb.load_table(tcfg["table_dir"])
    else:
        table = _build_table(cfg, lattice, opts, out)
    n = tcfg["n"]
    grid_n = Grid(lattice, GridSpec(_resolution(cfg), (n, 1, 1)))
    h_field = _h_field(cfg)
    u0, cs = ts.build_u0(table, h_field, grid_n, 1.0 / n)
    h_vals = h_field.sample(grid_n, 1.0 / n)
    u_cb = cb.cb_field(table, h_vals, 1.0 / n)
    u_star, trace = newton_solve(u0, h_vals, _newton_opts(cfg, seed), u_cb=u_cb)
    trace.write_csv(os.path.join(out, "newton_trace.csv"))
    fieldio.atomic_write_text(os.path.join(out, "newton_summary.json"), trace.to_json())
    fieldio.write_state(out, "u_star", u_star, {"n": n})
    if verbose:
        print(trace.to_json())
    return 0


def cmd_eps_study(cfg, out, seed, threads, verbose):
    lattice = _lattice(cfg)
    ecfg = cfg.get("eps")
    if ecfg is None:
        raise ConfigError("this command needs an 'eps' section")
    ccfg = cfg.get("cb")
    if ccfg is None:
        raise ConfigError("this command needs a 'cb' section")
    result = studies.run_eps_study(
        lattice,
        _resolution(cfg),
        _h_field(cfg),
        ecfg["n_values"],
        cb_range=ccfg["h_range"],
        cb_step=ccfg["step"],
        solve_opts=_solve_opts(cfg, seed),
        newton_opts=_newton_opts(cfg, seed),
        verify_samples=ccfg.get("verify_samples", True),
        drop_largest=ecfg.get("drop_largest", True),
        threads=threads,
    )
    result.write_csv(os.path.join(out, "eps_study.csv"))
    fieldio.atomic_write_text(os.path.join(out, "eps_slopes.json"), result.slopes_json())
    if verbose:
        print(result.slopes_json())
    return 0


def cmd_legendre_check(cfg, out, seed, threads, verbose):
    lattice = _lattice(cfg)
    opts = _solve_opts(cfg, seed)
    lcfg = cfg.get("legendre")
    if lcfg is None:
        raise ConfigError("this command needs a 'legendre' section")
    table = _build_table(cfg, lattice, opts, out)
    rows, _curve = studies.run_legendre_study(
        table,
        lcfg["h_values"],
        m_count=lcfg.get("m_count", 9),
        m_margin=lcfg.get("m_margin", 0.85),
        solve_opts=opts,
    )
    fieldio.atomic_write_text(os.path.join(out, "legendre_check.csv"), studies.legendre_rows_csv(rows))
    payload = {"max_rel_err": max(r.rel_err for r in rows)}
    _write_json(os.path.join(out, "legendre_summary.json"), payload)
    if verbose:
        print(json.dumps(payload, sort_keys=True))
    return 0


COMMANDS = {
    "solve-cell": cmd_solve_cell,
    "jellium-scan": cmd_jellium_scan,
    "stability-scan": cmd_stability_scan,
    "cb-table": cmd_cb_table,
    "two-scale-build": cmd_two_scale_build,
    "newton-study": cmd_newton_study,
    "eps-study": cmd_eps_study,
    "legendre-check": cmd_legendre_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tfdw",
        description="Pseudo-spectral solvers and studies for the spin-polarized TFDW model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON study configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
        p.add_argument("--threads", type=int, default=None, help="worker threads (or TFDW_THREADS)")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)}))
        return 2
    out = args.out or cfg.get("out", "tfdw_out")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    threads = args.threads
    if threads is None:
        threads = cfg.get("threads", int(os.environ.get("TFDW_THREADS", "1")))
    os.makedirs(out, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, out, seed, threads, args.verbose)
    except ConfigError as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)}))
        return 2
    except TfdwError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc), **exc.diagnostics()}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
