"""The three benchmark workloads: inputs from the seed, set-up, the timed
pipeline and the output checks.

All three use the workhorse cell of the test suite: the unit cube with
Z = 3, a background modulated by 0.15 along x1, on an 8x4x4 grid.
"""

from __future__ import annotations

import numpy as np

from tfdw import cauchy_born as cb
from tfdw import studies
from tfdw.cells import SolveOptions
from tfdw.grids import GridSpec, HField, LatticeSpec, Mode
from tfdw.newton import NewtonOptions

import checks

RESOLUTION = (8, 4, 4)
H_RANGE = 0.1
H_STEP = 0.0125
STABILITY_THRESHOLD = 1e-6


def workhorse_lattice():
    return LatticeSpec.cubic(1.0, 3.0, [((1, 0, 0), 0.15)])


def build_table(lattice):
    """The constant-field table as ``tfdw cb-table`` and ``tfdw eps-study``
    build it: every sample certified on the 2x2x2 zone grid, the anchor
    refined."""
    return cb.build_cb_table(
        lattice,
        GridSpec(RESOLUTION),
        h_range=H_RANGE,
        step=H_STEP,
        opts=SolveOptions(),
        stability_threshold=STABILITY_THRESHOLD,
        verify_samples=True,
    )


class CbTable:
    """Table build, write, read back, Legendre study on the table read back."""

    name = "cb-table"

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        # interior fields for the Legendre study, inside the range C9 uses
        return {"legendre_h": sorted(float(h) for h in rng.uniform(-0.07, 0.07, 5))}

    def setup(self, inputs):
        return {"lattice": workhorse_lattice(), **inputs}

    def operations(self, ctx):
        # one per table sample and one per Legendre field value
        return 2 * int(round(H_RANGE / H_STEP)) + 1 + len(ctx["legendre_h"])

    def pipeline(self, ctx, workdir):
        table = build_table(ctx["lattice"])
        cb.save_table(workdir, table)
        loaded = cb.load_table(workdir)
        rows, _ = studies.run_legendre_study(loaded, ctx["legendre_h"])
        return {"table": table, "loaded": loaded, "rows": rows}

    def check(self, ctx, out):
        return checks.check_cb_table(
            out["table"], out["loaded"], out["rows"], SolveOptions().tol, STABILITY_THRESHOLD
        )


class EpsSweep:
    """Two-scale state plus frozen-Jacobian Newton for n = 4 ... 32 under
    h = +-A cos(2 pi eps x1); the table is built in set-up."""

    name = "eps-sweep"
    n_values = (4, 6, 8, 12, 16, 24, 32)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        sign = float(rng.choice([-1.0, 1.0]))
        amp = 0.08 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0))
        return {"amp": sign * amp}

    def setup(self, inputs):
        lattice = workhorse_lattice()
        return {
            "lattice": lattice,
            "h_field": HField(0.0, [Mode((1, 0, 0), inputs["amp"])]),
            "table": build_table(lattice),
            **inputs,
        }

    def operations(self, ctx):
        return len(self.n_values)

    def pipeline(self, ctx, workdir):
        return studies.run_eps_study(
            ctx["lattice"],
            RESOLUTION,
            ctx["h_field"],
            self.n_values,
            cb_range=H_RANGE,
            cb_step=H_STEP,
            newton_opts=NewtonOptions(),
            table=ctx["table"],
        )

    def check(self, ctx, out):
        return checks.check_eps_sweep(out)


class SupercellStability:
    """Stability constant on 1-, 2- and 4-fold supercells at 8 physical
    quasimomenta along x1, under a constant field drawn from the seed."""

    name = "supercell-stability"
    n_values = (1, 2, 4)
    n_xi = 8

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"h_value": float(rng.uniform(-0.05, 0.05))}

    def setup(self, inputs):
        lattice = workhorse_lattice()
        b1 = lattice.reciprocal_vectors[0]
        xis = [(j / self.n_xi) * b1 for j in range(self.n_xi)]
        return {"lattice": lattice, "physical_xis": xis, **inputs}

    def operations(self, ctx):
        return len(self.n_values)

    def pipeline(self, ctx, workdir):
        reports, sol = studies.measure_stability_in_n(
            ctx["lattice"],
            RESOLUTION,
            n_values=self.n_values,
            n_xi=self.n_xi,
            h_value=ctx["h_value"],
            threshold=STABILITY_THRESHOLD,
        )
        return {"reports": reports, "solution": sol}

    def check(self, ctx, out):
        return checks.check_supercell_stability(
            out["reports"], out["solution"], ctx["h_value"], ctx["physical_xis"]
        )


WORKLOADS = {w.name: w for w in (CbTable(), EpsSweep(), SupercellStability())}
