"""Slowly varying field: two-scale construction and Newton refinement.

Under a field h(eps x) the electronic structure is locally periodic to
leading order; adding the first- and second-order correctors produces a
state whose Euler-Lagrange residual vanishes at third order in eps.  A
frozen-Jacobian Newton iteration then converges to the exact supercell
solution with geometric contraction, and the distances exhibit the
asymptotic orders as log-log slopes.
"""

import numpy as np

from tfdw import cauchy_born as cb
from tfdw import twoscale as ts
from tfdw.cells import SolveOptions
from tfdw.grids import Grid, GridSpec, HField, LatticeSpec
from tfdw.newton import NewtonOptions, newton_solve
from tfdw.residual import residual
from tfdw.studies import fit_loglog_slope

lattice = LatticeSpec.cubic(1.0, 3.0, [((1, 0, 0), 0.15)])
table = cb.build_cb_table(
    lattice, GridSpec((8, 4, 4)), h_range=0.1, step=0.0125,
    opts=SolveOptions(), verify_samples=False,
)
h = HField(0.0, [((1, 0, 0), 0.08)])
print("applied field: h(eps x) = 0.08 cos(2 pi eps x1), quasi-1d supercells (n, 1, 1)\n")

rows = []
print(" n    eps      |F(u_cb)|    |F(u0)|      steps  contraction  |u*-u0|_H2   |u*-u_cb|_H2")
for n in (4, 6, 8, 12, 16):
    grid = Grid(lattice, GridSpec((8, 4, 4), (n, 1, 1)))
    eps = grid.eps
    h_vals = h.sample(grid)
    u_cb = cb.cb_field(table, h_vals)
    u0, correctors = ts.build_u0(table, h, grid)
    res_cb = residual(u_cb, h_vals).norm_l2n()
    res_u0 = residual(u0, h_vals).norm_l2n()
    u_star, trace = newton_solve(u0, h_vals, NewtonOptions(tol=1e-10), u_cb=u_cb)
    print(
        f"{n:3d}  {eps:.4f}  {res_cb:.3e}  {res_u0:.3e}   {len(trace.increments):3d}"
        f"    {trace.contraction_max:.4f}     {trace.distance_to_u0:.3e}   {trace.distance_to_cb:.3e}"
    )
    rows.append((eps, res_u0, trace.distance_to_u0, trace.distance_to_cb))

eps_v = [r[0] for r in rows]
print("\nlog-log slopes (largest eps excluded as pre-asymptotic):")
print(f"  ansatz residual      : {fit_loglog_slope(eps_v, [r[1] for r in rows]):.2f}   (third-order bound)")
print(f"  |u* - u0|_H2         : {fit_loglog_slope(eps_v, [r[2] for r in rows]):.2f}   (third-order bound)")
print(f"  |u* - u_cb|_H2       : {fit_loglog_slope(eps_v, [r[3] for r in rows]):.2f}   (first-order bound)")
print("\nthe same study is available as:  tfdw eps-study --config <config.json>")
