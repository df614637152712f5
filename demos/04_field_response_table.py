"""The constant-field map h -> cell ground state, and its dual.

Continuation in the applied field produces a table of certified cell
solutions; its averaged energy E(h) and magnetization m(h) behave like a
thermodynamic pair (dE/dh = -m per cell).  The dual problem fixes m instead
and recovers E(h) as a Legendre transform, which is checked numerically.
"""

from tfdw import cauchy_born as cb
from tfdw.cells import SolveOptions
from tfdw.grids import GridSpec, LatticeSpec
from tfdw.studies import run_legendre_study

lattice = LatticeSpec.cubic(1.0, 3.0, [((1, 0, 0), 0.15)])
table = cb.build_cb_table(
    lattice, GridSpec((8, 4, 4)), h_range=0.1, step=0.0125,
    opts=SolveOptions(), verify_samples=False,
)
print(f"tabulated {len(table.h_samples)} certified samples over [{table.h_min}, {table.h_max}]")

print("\n   h        E_CB(h)        m_tot(h)")
for h in (-0.1, -0.05, 0.0, 0.05, 0.1):
    print(f"{h:+.3f}   {table.energy_at(h):+.8f}   {table.m_at(h):+.8f}")

# envelope relation: dE/dh = -m/|Gamma|
h0 = 0.05
dE = table.energy_spline()(h0, 1)
print(f"\ndE/dh at h = {h0}:   {float(dE):+.8f}")
print(f"-m(h)/|Gamma|:      {-table.m_at(h0) / lattice.volume:+.8f}")

# dual route: constrain the magnetization and let a second multiplier play
# the field; the constrained energies Legendre-transform back to E(h)
m_star = 0.5 * table.m_at(h0)
dual = cb.dual_energy(table, m_star)
print(f"\nconstrained solve at m = {m_star:.6f}:")
print(f"  field multiplier mu = {dual.field_multiplier:+.6f}")
print(f"  constraint defect    = {dual.constraint_defect:.2e}")

rows, _ = run_legendre_study(table, [h0], m_count=9)
r = rows[0]
print(
    f"\nLegendre check at h = {h0}: E_CB = {r.E_CB:.10f}, "
    f"min_m(dual - h m) = {r.legendre_value:.10f}, rel err = {r.rel_err:.2e}"
)
