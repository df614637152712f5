"""Pseudo-spectral solvers for the spin-polarized
Thomas-Fermi-Dirac-von Weizsacker model on periodic crystals.

The package covers the full pipeline: periodic cell ground states, stability
certification of the linearized operator through its Bloch fibers, the
closed-form constant-background oracle, continuation of the cell solution in
a constant applied field, two-scale construction of approximate states under
a slowly varying field, and frozen-Jacobian Newton refinement with
convergence-order studies.
"""

__version__ = "0.1.0"

from .energy import EnergyBreakdown, energy_supercell, zeeman_coupling
from .errors import TfdwError
from .grids import Grid, GridSpec, HField, LatticeSpec, Mode, ScalarField, State, constant_field
from .jellium import JelliumParams, cdw_condition, sdw_threshold
from .linop import FiberOperator, LinearizedOperator, StabilityReport, spectral_gap, stability_scan
from .newton import NewtonOptions, NewtonTrace, newton_solve
from .residual import Residual, gauge_fit, normalize_state, residual
from .cells import CellSolution, SolveOptions, solve_cell
from .cauchy_born import CBTable, build_cb_table, cb_field, dual_energy
from .twoscale import (
    CorrectorSet,
    assemble_u0,
    build_u0,
    first_order_correctors,
    second_order_correctors,
)
