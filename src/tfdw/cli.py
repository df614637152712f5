"""Command-line surface: JSON configs in, CSV/JSON reports out.

Commands map one-to-one onto module pipelines; the CLI never computes
numbers itself beyond the shared log-log slope fit.  The lattice and the
applied field are read by their descriptors in ``tfdw.grids``.  A section
whose keys are parameters of a library call (``cell``, ``cb``, ``eps``,
``legendre``, ``solver``, ``newton``, ``stability``) is passed to it as
keyword arguments, so an omitted key takes that function's default.  Every
output is written atomically in the one report format of ``tfdw.fieldio``,
so identical configs and seeds give byte-identical files.

Exit codes: 0 success, 2 configuration/schema violation, 3 solver failure
(with a machine-readable error JSON on stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from . import cauchy_born as cb
from . import fieldio, jellium
from . import studies
from . import twoscale as ts
from .cells import SolveOptions, save_solution, solve_cell
from .errors import ConfigError, StructuralError, TfdwError
from .grids import Grid, GridSpec, HField, LatticeSpec, State
from .linop import monkhorst_pack, stability_scan
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

_JSON_TYPES = {"float": "number", "int": "integer", "bool": "boolean"}


def _options_section(options):
    """The schema section of an options dataclass, built as
    ``options(**section, seed=seed)``: one key per ``fieldio.config_option``
    field, its JSON type from the annotation, its bounds from the field."""
    properties = {
        f.name: {"type": _JSON_TYPES[f.type], **f.metadata["json"]}
        for f in dataclasses.fields(options)
        if "json" in f.metadata
    }
    return {"type": "object", "properties": properties, "additionalProperties": False}


CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "out": {"type": "string"},
        "seed": {"type": "integer"},
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
            },
            "required": ["resolution"],
            "additionalProperties": False,
        },
        "h": {
            "type": "object",
            "properties": {"value": {"type": "number"}, "modes": {"type": "array", "items": _MODE}},
            "additionalProperties": False,
        },
        "solver": _options_section(SolveOptions),
        "newton": _options_section(NewtonOptions),
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
    """The config object at ``path``; ConfigError unless it is a readable
    JSON object that satisfies CONFIG_SCHEMA."""
    try:
        cfg = fieldio.read_manifest(path)
    except StructuralError as exc:
        raise ConfigError(f"config {exc}") from exc
    import jsonschema

    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    return cfg


def _section(cfg, name):
    if name not in cfg:
        raise ConfigError(f"this command needs the '{name}' section")
    return cfg[name]


def _lattice(cfg):
    return LatticeSpec.from_descriptor(_section(cfg, "lattice"))


def _resolution(cfg):
    return tuple(_section(cfg, "grid")["resolution"])


def _solve_opts(cfg, seed):
    return SolveOptions(**cfg.get("solver", {}), seed=seed)


def _newton_opts(cfg, seed):
    return NewtonOptions(**cfg.get("newton", {}), seed=seed)


def _cell_solution(cfg, seed):
    grid = GridSpec(_resolution(cfg))
    return solve_cell(_lattice(cfg), grid, **cfg.get("cell", {}), opts=_solve_opts(cfg, seed))


def _stability(cfg, lattice):
    """The keyword arguments of ``stability_scan`` the stability section gives."""
    s = cfg.get("stability", {})
    kwargs = {key: s[key] for key in ("threshold", "refine") if key in s}
    if "xi_density" in s:
        kwargs["xi_grid"] = monkhorst_pack(lattice, tuple(s["xi_density"]))
    return kwargs


def _build_table(cfg, lattice, opts):
    scan = _stability(cfg, lattice)
    return cb.build_cb_table(
        lattice,
        GridSpec(_resolution(cfg)),
        **_section(cfg, "cb"),
        opts=opts,
        **{f"stability_{key}": scan[key] for key in ("threshold", "xi_grid") if key in scan},
    )


def _two_scale_inputs(cfg, seed):
    """The two-scale section, the table (loaded from ``table_dir`` or
    built), the n-fold supercell grid and the applied field."""
    lattice = _lattice(cfg)
    tcfg = _section(cfg, "two_scale")
    if "table_dir" in tcfg:
        table = cb.load_table(tcfg["table_dir"])
    else:
        table = _build_table(cfg, lattice, _solve_opts(cfg, seed))
    grid_n = Grid(lattice, GridSpec(_resolution(cfg), (tcfg["n"], 1, 1)))
    return tcfg, table, grid_n, HField.from_descriptor(cfg.get("h", {}))


# -- commands -----------------------------------------------------------------


def cmd_solve_cell(cfg, out, seed, verbose):
    sol = _cell_solution(cfg, seed)
    save_solution(out, "cell_solution", sol)
    summary = {
        "h_value": sol.h_value,
        "residual_norm": sol.residual_norm,
        "energy_total": sol.energy.total,
        "min_nu": sol.min_nu,
        "phase1_iterations": sol.phase1_iterations,
        "newton_iterations": sol.newton_iterations,
    }
    fieldio.write_json(os.path.join(out, "summary.json"), summary)
    if verbose:
        print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_jellium_scan(cfg, out, seed, verbose):
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
    fieldio.write_json(os.path.join(out, "jellium_threshold.json"), payload)
    if verbose:
        print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_stability_scan(cfg, out, seed, verbose):
    s = cfg.get("stability", {})
    if s.get("source", "cell") == "jellium":
        params = jellium.JelliumParams(cfg.get("jellium", {}).get("nu0", 0.5))
        lattice = jellium.jellium_lattice(params)
        grid = Grid(lattice, GridSpec(_resolution(cfg)))
        state = jellium.jellium_state(params, grid)
        h_value = 0.0
    else:
        sol = _cell_solution(cfg, seed)
        lattice, state, h_value = sol.grid.lattice, sol.state, sol.h_value
    report = stability_scan(state, h_value, **_stability(cfg, lattice))
    fieldio.atomic_write_text(os.path.join(out, "stability_report.json"), report.to_json())
    report.write_csv(os.path.join(out, "fiber_gaps.csv"))
    if verbose:
        print(report.to_json())
    return 0


def cmd_cb_table(cfg, out, seed, verbose):
    lattice = _lattice(cfg)
    opts = _solve_opts(cfg, seed)
    table = _build_table(cfg, lattice, opts)
    cb.save_table(os.path.join(out, "cb_table"), table)
    cb.export_curves_csv(table, os.path.join(out, "cb_curves.csv"))
    if verbose:
        print(f"tabulated {len(table.h_samples)} samples over [{table.h_min}, {table.h_max}]")
    return 0


def cmd_two_scale_build(cfg, out, seed, verbose):
    tcfg, table, grid_n, h_field = _two_scale_inputs(cfg, seed)
    n = tcfg["n"]
    u0, cs = ts.build_u0(table, h_field, grid_n)
    res = residual(u0, h_field.sample(grid_n)).norm_l2n()
    ts.save_u0(out, "u0", u0, cs, {"ansatz_residual": res})
    if verbose:
        print(f"n = {n}: ansatz residual {res:.6e}")
    return 0


def cmd_newton_study(cfg, out, seed, verbose):
    tcfg, table, grid_n, h_field = _two_scale_inputs(cfg, seed)
    n = tcfg["n"]
    u0, cs = ts.build_u0(table, h_field, grid_n)
    h_vals = h_field.sample(grid_n)
    u_cb = State.from_stack(grid_n, cs.u_cb)
    u_star, trace = newton_solve(u0, h_vals, _newton_opts(cfg, seed), u_cb=u_cb)
    trace.write_csv(os.path.join(out, "newton_trace.csv"))
    fieldio.atomic_write_text(os.path.join(out, "newton_summary.json"), trace.to_json())
    fieldio.write_state(out, "u_star", u_star, {"n": n})
    if verbose:
        print(trace.to_json())
    return 0


def cmd_eps_study(cfg, out, seed, verbose):
    lattice = _lattice(cfg)
    ecfg = _section(cfg, "eps")
    ccfg = _section(cfg, "cb")
    result = studies.run_eps_study(
        lattice,
        _resolution(cfg),
        HField.from_descriptor(cfg.get("h", {})),
        **ecfg,
        cb_range=ccfg["h_range"],
        cb_step=ccfg["step"],
        newton_opts=_newton_opts(cfg, seed),
        table=_build_table(cfg, lattice, _solve_opts(cfg, seed)),
    )
    result.write_csv(os.path.join(out, "eps_study.csv"))
    fieldio.write_json(os.path.join(out, "eps_slopes.json"), result.slopes)
    if verbose:
        print(fieldio.json_text(result.slopes))
    return 0


def cmd_legendre_check(cfg, out, seed, verbose):
    lattice = _lattice(cfg)
    opts = _solve_opts(cfg, seed)
    lcfg = _section(cfg, "legendre")
    table = _build_table(cfg, lattice, opts)
    rows, _curve = studies.run_legendre_study(table, **lcfg, solve_opts=opts)
    studies.write_legendre_csv(os.path.join(out, "legendre_check.csv"), rows)
    payload = {"max_rel_err": max(r.rel_err for r in rows)}
    fieldio.write_json(os.path.join(out, "legendre_summary.json"), payload)
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
    os.makedirs(out, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, out, seed, args.verbose)
    except ConfigError as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)}))
        return 2
    except TfdwError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc), **exc.diagnostics()}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
