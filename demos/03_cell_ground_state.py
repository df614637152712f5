"""Ground state of one crystal cell, certified.

Solves the periodic cell problem for a modulated background, shows the
energy breakdown and the residual of the stationarity system, then certifies
the solution by the spectral gap of its linearization over sampled Bloch
fibers.
"""

import numpy as np

from tfdw.cells import SolveOptions, solve_cell
from tfdw.grids import GridSpec, LatticeSpec
from tfdw.linop import monkhorst_pack, stability_scan

lattice = LatticeSpec.cubic(1.0, 3.0, [((1, 0, 0), 0.15)])
print("background: rho_b = 3 + 0.15 cos(2 pi x1), three electrons per unit cell")

sol = solve_cell(lattice, GridSpec((8, 4, 4)), h_value=0.0, init="uniform", opts=SolveOptions())
print(f"\nconverged in {sol.phase1_iterations} descent + {sol.newton_iterations} Newton steps")
print(f"residual (averaged (L^2_n)^3): {sol.residual_norm:.3e}")
print(f"nu range: [{sol.min_nu:.6f}, {np.max(sol.state.nu_plus.values):.6f}]  (interior branch)")

e = sol.energy
print("\nenergy breakdown (totals over the cell):")
for name in ("thomas_fermi", "weizsacker", "dirac", "coulomb", "zeeman"):
    print(f"  {name:13s} {getattr(e, name):+.10f}")
print(f"  {'total':13s} {e.total:+.10f}")

# Switching on a constant field splits the spin channels.
sol_h = solve_cell(lattice, GridSpec((8, 4, 4)), h_value=0.05, init="uniform", opts=SolveOptions())
m = sol_h.grid.integrate(sol_h.state.m_values())
print(f"\nat h = 0.05 the cell magnetization is m_tot = {m:.6f}")

# Certification: the linearization must be gapped away from zero on every
# sampled fiber for the solution to anchor a continuation.
report = stability_scan(sol.state, sol.h_value, xi_grid=monkhorst_pack(lattice, (2, 2, 2)), refine=True)
print(f"\nstability: {report.classification}, gap {report.global_gap:.4f}, M = {report.M:.4f}")
print("per-fiber gaps:")
for (xi, gap) in report.fiber_gaps[:4]:
    print(f"  xi = ({xi[0]:+.3f}, {xi[1]:+.3f}, {xi[2]:+.3f})  gap = {gap:.4f}")
print("  ...")
