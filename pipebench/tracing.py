"""In-memory span tracer and the instrumentation that feeds it.

The benchmark records spans from its own files: ``instrument`` replaces
public functions and methods of the ``tfdw`` modules with wrappers that open
a frame on a ``Tracer`` around each call, and ``restore`` puts the originals
back.  Nothing inside ``tfdw`` is edited.

Every wrapped call opens a frame.  Coarse calls are also recorded as spans
(name, parent, start, end); hot, fine-grained calls (the FFT-based ``Grid``
methods, ``LinearizedOperator.apply``, ``residual``, ``energy_supercell``,
the low-level field writes) are only aggregated as a call count and a time.
A frame's self time is its duration minus the time its child frames cover,
so time spent in an aggregated call is still subtracted from the span that
made it.  Work counts are read from the values the program returns
(``CellSolution``, ``NewtonTrace``, ``CorrectorSet``, the ``minimize``
result) or, where nothing returns them, computed from the call's arguments.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Frames on a stack, spans in a list, totals per name.

    ``inclusive[name]`` adds a call's duration only when no other frame of
    the same name is open around it, so nested or recursive calls of one
    name are not counted twice.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self._depth = Counter()

    def enter(self, name, record=True):
        span_id = None
        if record:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            span_id = len(self.spans)
            self.spans.append({"name": name, "parent": parent, "start": None, "end": None})
        start = self.clock()
        if span_id is not None:
            self.spans[span_id]["start"] = start
        self._stack.append([name, start, 0.0, span_id])
        self._depth[name] += 1

    def exit(self):
        end = self.clock()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += duration - child
        if self._depth[name] == 0:
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans[span_id].update(end=end, self_s=duration - child)
        return duration

    @property
    def active(self):
        """Calls are traced only inside an open frame (the pipeline root)."""
        return bool(self._stack)

    def frame(self, name, record=True):
        return _Frame(self, name, record)

    def count(self, name, amount=1):
        self.counts[name] += amount

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def write(self, path):
        """Write the spans and totals as one JSON file."""
        payload = {
            "spans": self.spans,
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


class _Frame:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer, name, record):
        self.tracer, self.name, self.record = tracer, name, record

    def __enter__(self):
        self.tracer.enter(self.name, self.record)
        return self

    def __exit__(self, *exc):
        self.tracer.exit()
        return False


ROOT = "pipeline"

# (metric name, unit, better), in the order the command prints them
PER_LAYER = [
    ("linop.eigensolves", "count", "lower"),
    ("linop.eigensolve_s", "s", "lower"),
    ("linop.eigensolve_work_gn3", "Gdim3", "lower"),
    ("linop.refine_evaluations", "count", "lower"),
    ("linop.fiber_builds", "count", "lower"),
    ("linop.fiber_build_s", "s", "lower"),
    ("linop.scan_s", "s", "lower"),
    ("linop.max_fiber_dim", "count", "lower"),
    ("linop.dense_assemblies", "count", "lower"),
    ("linop.dense_assembly_s", "s", "lower"),
    ("linop.applies", "count", "lower"),
    ("linop.apply_s", "s", "lower"),
    ("cells.solve_cell_s", "s", "lower"),
    ("cells.phase1_iterations", "count", "lower"),
    ("cells.polish_calls", "count", "lower"),
    ("cells.polish_steps", "count", "lower"),
    ("cells.polish_s", "s", "lower"),
    ("cauchy_born.table_s", "s", "lower"),
    ("cauchy_born.samples", "count", "higher"),
    ("cauchy_born.du_dh_solves", "count", "lower"),
    ("cauchy_born.du_dh_per_sample", "ratio", "lower"),
    ("cauchy_born.dual_calls", "count", "lower"),
    ("cauchy_born.dual_s", "s", "lower"),
    ("cauchy_born.cb_field_s", "s", "lower"),
    ("twoscale.macro_samples", "count", "lower"),
    ("twoscale.first_order_s", "s", "lower"),
    ("twoscale.second_order_s", "s", "lower"),
    ("twoscale.assemble_s", "s", "lower"),
    ("newton.solves", "count", "lower"),
    ("newton.outer_steps", "count", "lower"),
    ("newton.minres_iterations", "count", "lower"),
    ("newton.minres_per_step", "ratio", "lower"),
    ("newton.solve_s", "s", "lower"),
    ("grids.fft_calls", "count", "lower"),
    ("grids.fft_points", "count", "lower"),
    ("grids.fft_s", "s", "lower"),
    ("residual.calls", "count", "lower"),
    ("residual.s", "s", "lower"),
    ("energy.calls", "count", "lower"),
    ("energy.s", "s", "lower"),
    ("fieldio.bytes_written", "bytes", "lower"),
    ("fieldio.write_s", "s", "lower"),
    ("fieldio.bytes_read", "bytes", "lower"),
    ("fieldio.read_s", "s", "lower"),
    ("trace.pipeline_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tr: Tracer, untraced_pipeline_s: float):
    """Every per-layer metric of one traced pipeline, by name."""
    inc, calls, cnt = tr.inclusive, tr.calls, tr.counts
    pipeline_s = inc[ROOT]
    unattributed = tr.self_time[ROOT]
    values = {
        "linop.eigensolves": cnt["linop.eigensolves"],
        "linop.eigensolve_s": inc["linop.eigensolve"],
        "linop.eigensolve_work_gn3": cnt["linop.eigensolve_work_gn3"],
        "linop.refine_evaluations": cnt["linop.refine_evaluations"],
        "linop.fiber_builds": calls["linop.fiber_build"],
        "linop.fiber_build_s": inc["linop.fiber_build"],
        "linop.scan_s": inc["linop.scan"],
        "linop.max_fiber_dim": tr.maxima["linop.fiber_dim"],
        "linop.dense_assemblies": calls["linop.dense_assembly"],
        "linop.dense_assembly_s": inc["linop.dense_assembly"],
        "linop.applies": calls["linop.apply"],
        "linop.apply_s": inc["linop.apply"],
        "cells.solve_cell_s": inc["cells.solve_cell"],
        "cells.phase1_iterations": cnt["cells.phase1_iterations"],
        "cells.polish_calls": calls["cells.polish"],
        "cells.polish_steps": cnt["cells.polish_steps"],
        "cells.polish_s": inc["cells.polish"],
        "cauchy_born.table_s": inc["cauchy_born.table"],
        "cauchy_born.samples": cnt["cauchy_born.samples"],
        "cauchy_born.du_dh_solves": calls["cauchy_born.du_dh"],
        "cauchy_born.du_dh_per_sample": _ratio(
            calls["cauchy_born.du_dh"], cnt["cauchy_born.samples"]
        ),
        "cauchy_born.dual_calls": calls["cauchy_born.dual"],
        "cauchy_born.dual_s": inc["cauchy_born.dual"],
        "cauchy_born.cb_field_s": inc["cauchy_born.cb_field"],
        "twoscale.macro_samples": cnt["twoscale.macro_samples"],
        "twoscale.first_order_s": inc["twoscale.first_order"],
        "twoscale.second_order_s": inc["twoscale.second_order"],
        "twoscale.assemble_s": inc["twoscale.assemble"],
        "newton.solves": calls["newton.solve"],
        "newton.outer_steps": cnt["newton.outer_steps"],
        "newton.minres_iterations": cnt["newton.minres_iterations"],
        "newton.minres_per_step": _ratio(
            cnt["newton.minres_iterations"], cnt["newton.outer_steps"]
        ),
        "newton.solve_s": inc["newton.solve"],
        "grids.fft_calls": cnt["grids.fft_calls"],
        "grids.fft_points": cnt["grids.fft_points"],
        "grids.fft_s": inc["grids.fft"],
        "residual.calls": calls["residual"],
        "residual.s": inc["residual"],
        "energy.calls": calls["energy"],
        "energy.s": inc["energy"],
        "fieldio.bytes_written": cnt["fieldio.bytes_written"],
        "fieldio.write_s": inc["fieldio.write"],
        "fieldio.bytes_read": cnt["fieldio.bytes_read"],
        "fieldio.read_s": inc["fieldio.read"],
        "trace.pipeline_s": pipeline_s,
        "trace.overhead_s": pipeline_s - untraced_pipeline_s,
        "trace.unattributed_s": unattributed,
        "trace.coverage": _ratio(pipeline_s - unattributed, pipeline_s),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}


# -- instrumentation -----------------------------------------------------------


def _replace_everywhere(original, wrapper, undo):
    """Point every tfdw module attribute that holds ``original`` (the
    defining module and every ``from .x import name``) at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tfdw" or mod_name.startswith("tfdw.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)


def _wrap(tr, name, fn, record=True, after=None, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        tr.enter(name, record)
        try:
            if before is not None:
                before(args, kwargs)
            out = fn(*args, **kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out
        finally:
            tr.exit()

    return wrapper


def _patch_function(tr, undo, module, attr, name, **kw):
    original = getattr(module, attr)
    _replace_everywhere(original, _wrap(tr, name, original, **kw), undo)


def _patch_method(tr, undo, cls, attr, name, **kw):
    original = cls.__dict__[attr]
    undo.append((cls, attr, original))
    setattr(cls, attr, _wrap(tr, name, original, **kw))


def _fft_count(method, multi_indices):
    """Number of n-D transforms one call of a Grid method performs."""

    def count(args, kwargs):
        if method in ("fft", "ifft"):
            return 1
        if method == "deriv":
            alpha = args[2] if len(args) > 2 else kwargs["alpha"]
            return 2 if sum(alpha) else 0
        if method == "hk_norm":
            k = args[2] if len(args) > 2 else kwargs["k"]
            return 1 + sum(1 for a in multi_indices(k) if sum(a))
        return 2

    return count


def instrument(tr: Tracer):
    """Wrap the tfdw entry points; returns the list ``restore`` undoes."""
    from scipy.optimize import minimize

    # by module path: the package re-exports a function named ``residual``
    (cauchy_born, cells, energy, fieldio, grids, linop, newton, residual, twoscale) = (
        importlib.import_module(f"tfdw.{m}")
        for m in (
            "cauchy_born", "cells", "energy", "fieldio", "grids", "linop", "newton",
            "residual", "twoscale",
        )
    )
    undo = []

    # linop: fibers, eigensolves, the scan and its refinement, the operator
    def fiber_built(out, args, kwargs):
        tr.maximum("linop.fiber_dim", args[0].matrix.shape[0])

    def eigensolve_done(out, args, kwargs):
        dim = args[0].matrix.shape[0]
        tr.count("linop.eigensolves")
        tr.count("linop.eigensolve_work_gn3", dim**3 / 1e9)

    _patch_method(tr, undo, linop.FiberOperator, "__init__", "linop.fiber_build", after=fiber_built)
    _patch_method(
        tr, undo, linop.FiberOperator, "min_eigenpair", "linop.eigensolve", after=eigensolve_done
    )
    cached_eigenvalues = linop.FiberOperator.__dict__["eigenvalues"]
    timed_eigenvalues = _wrap(tr, "linop.eigensolve", cached_eigenvalues, after=eigensolve_done)

    def eigenvalues(self):
        # only a call that reaches the eigensolver is a span; cached ones pass
        if self._eigvals is None:
            return timed_eigenvalues(self)
        return cached_eigenvalues(self)

    undo.append((linop.FiberOperator, "eigenvalues", cached_eigenvalues))
    linop.FiberOperator.eigenvalues = eigenvalues

    _patch_function(tr, undo, linop, "stability_scan", "linop.scan")
    if getattr(linop, "minimize", None) is minimize:
        _patch_function(
            tr, undo, linop, "minimize", "linop.refine",
            after=lambda out, a, k: tr.count("linop.refine_evaluations", out.nfev),
        )
    _patch_method(tr, undo, linop.LinearizedOperator, "dense_matrix", "linop.dense_assembly")
    _patch_method(tr, undo, linop.LinearizedOperator, "apply", "linop.apply", record=False)

    # cells
    _patch_function(
        tr, undo, cells, "solve_cell", "cells.solve_cell",
        after=lambda out, a, k: tr.count("cells.phase1_iterations", out.phase1_iterations),
    )
    _patch_function(
        tr, undo, cells, "newton_polish", "cells.polish",
        after=lambda out, a, k: tr.count("cells.polish_steps", out[2]),
    )

    # cauchy_born
    _patch_function(
        tr, undo, cauchy_born, "build_cb_table", "cauchy_born.table",
        after=lambda out, a, k: tr.count("cauchy_born.samples", len(out.h_samples)),
    )
    _patch_function(tr, undo, cauchy_born, "solve_du_dh", "cauchy_born.du_dh")
    _patch_function(tr, undo, cauchy_born, "dual_energy", "cauchy_born.dual")
    _patch_function(tr, undo, cauchy_born, "cb_field", "cauchy_born.cb_field")
    _patch_function(tr, undo, cauchy_born, "save_table", "cauchy_born.save_table")
    _patch_function(tr, undo, cauchy_born, "load_table", "cauchy_born.load_table")

    # twoscale
    _patch_function(tr, undo, twoscale, "build_u0", "twoscale.build_u0")
    _patch_function(
        tr, undo, twoscale, "first_order_correctors", "twoscale.first_order",
        after=lambda out, a, k: tr.count("twoscale.macro_samples", len(out.macro_samples)),
    )
    _patch_function(tr, undo, twoscale, "second_order_correctors", "twoscale.second_order")
    _patch_function(tr, undo, twoscale, "assemble_u0", "twoscale.assemble")

    # newton
    def newton_done(out, args, kwargs):
        trace = out[1]
        tr.count("newton.outer_steps", len(trace.increments))
        tr.count("newton.minres_iterations", sum(trace.inner_iterations))

    _patch_function(tr, undo, newton, "newton_solve", "newton.solve", after=newton_done)

    # residual and energy evaluations
    _patch_function(tr, undo, residual, "residual", "residual", record=False)
    _patch_function(tr, undo, residual, "residual_system", "residual", record=False)
    _patch_function(tr, undo, energy, "energy_supercell", "energy", record=False)

    # grids: every FFT-based Grid method, aggregated
    for method in (
        "fft", "ifft", "deriv", "laplacian", "spectral_multiply", "poisson",
        "coulomb_pairing", "hk_norm",
    ):
        transforms = _fft_count(method, grids.multi_indices)

        def count_ffts(args, kwargs, transforms=transforms):
            n = transforms(args, kwargs)
            tr.count("grids.fft_calls", n)
            tr.count("grids.fft_points", n * args[0].total_points)

        _patch_method(tr, undo, grids.Grid, method, "grids.fft", record=False, before=count_ffts)

    # fieldio: all writes end in atomic_write_bytes; reads in read_field and
    # the manifest that read_state opens
    def wrote(out, args, kwargs):
        tr.count("fieldio.bytes_written", len(args[1]))

    def read_field_done(out, args, kwargs):
        tr.count("fieldio.bytes_read", os.path.getsize(args[0]))

    def read_state_done(out, args, kwargs):
        tr.count("fieldio.bytes_read", os.path.getsize(os.path.join(args[0], f"{args[1]}.json")))

    for attr in ("write_state", "write_field", "atomic_write_text"):
        _patch_function(tr, undo, fieldio, attr, "fieldio.write")
    _patch_function(tr, undo, fieldio, "atomic_write_bytes", "fieldio.write", after=wrote)
    _patch_function(tr, undo, fieldio, "read_field", "fieldio.read", after=read_field_done)
    _patch_function(tr, undo, fieldio, "read_state", "fieldio.read", after=read_state_done)
    return undo


def restore(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
