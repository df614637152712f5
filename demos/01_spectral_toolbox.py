"""Tour of the periodic field toolbox: grids, transforms, norms, Poisson.

Everything downstream (energies, linearizations, sweeps) is built from the
handful of spectral primitives shown here.
"""

import numpy as np

from tfdw.grids import Grid, GridSpec, LatticeSpec

# A unit cube holding two electrons, with a smoothly modulated background.
lattice = LatticeSpec.cubic(1.0, 2.0, [((1, 0, 0), 0.2)])
grid = Grid(lattice, GridSpec(resolution=(8, 4, 4), supercell=(2, 1, 1)))
print(f"grid: {grid.shape} points over a {grid.spec.supercell} supercell, |Gamma| = {grid.vol_cell}")

# Fourier coefficients follow the continuum normalization: a constant field
# has a single coefficient (2 pi)^{-3/2} |n Gamma| at k = 0.
coeffs = grid.fft(np.ones(grid.shape))
print(f"fhat(0) for f = 1:            {coeffs.flat[0]:.12f}")
print(f"(2 pi)^(-3/2) |n Gamma|:      {(2 * np.pi) ** (-1.5) * grid.vol_supercell:.12f}")

# Volume-averaged norms measure per-cell content, so they do not grow with
# the supercell: a unit cosine always has L^2_n norm 1/sqrt(2).
c = np.cos(2 * np.pi * grid.cell_fraction[0])
print(f"|cos|_L2n = {grid.l2n(c):.12f}  (1/sqrt(2) = {1 / np.sqrt(2):.12f})")
print(f"|cos|_H2n = {grid.hk_norm(c, 2):.6f}  (adds the spectral derivatives)")

# The Coulomb solve is a diagonal division by |k|^2; applying the Laplacian
# back recovers the source to solver precision.
rng = np.random.default_rng(0)
src = np.cos(2 * np.pi * grid.supercell_fraction[0]) + 0.3 * np.cos(
    2 * np.pi * (grid.cell_fraction[1] + grid.cell_fraction[2])
)
src -= np.mean(src)
V = grid.poisson(4 * np.pi * src)
check = grid.l2n(-grid.laplacian(V) - 4 * np.pi * src)
print(f"|-Lap V - 4 pi rho|_L2n after the Poisson solve: {check:.2e}")

# The homogeneous H^-1 pairing is the spectral sum 4 pi sum |fhat|^2/|k|^2;
# for the unit cosine on the unit cube it evaluates to (2 pi)^-4.
cell = grid.cell_grid()
cc = np.cos(2 * np.pi * cell.cell_fraction[0])
print(f"<cos, cos>_(H^-1) = {cell.hminus1_inner(cc, cc):.12e}  ((2 pi)^-4 = {(2 * np.pi) ** (-4):.12e})")
