"""Energy functional on supercells, with a per-term breakdown.

All terms are unscaled totals over the supercell.  The Coulomb term is
evaluated spectrally through the pairing D(f, g) = \\int V_f g with
-Laplacian V_f = 4 pi f, so that the Poisson equation of the residual module
is exactly the stationarity condition of (1/2) D(rho - rho_b, rho - rho_b).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import SolvabilityError
from .grids import State, as_h_values

COULOMB_MEAN_TOL = 1e-8
# the local density per spin channel, f(nu) = |nu|^(10/3) - |nu|^(8/3), as
# (coefficient, exponent) terms: Thomas-Fermi and Dirac.  It lives here alone
TFD_TERMS = ((Fraction(1), Fraction(10, 3)), (Fraction(-1), Fraction(8, 3)))
# the k-th derivative of each term, k = 0...3, as (c p (p - 1)...(p - k + 1),
# p - k): exact rationals, each rounded once to float
_TFD_DERIVATIVES = [
    [(float(c * math.prod(p - j for j in range(k))), float(p - k)) for c, p in TFD_TERMS]
    for k in range(4)
]


def tfd_derivatives(nu, k):
    """The k-th nu-derivative (k = 0...3) of the Thomas-Fermi term and of
    the Dirac term, as two arrays: c p (p - 1)...(p - k + 1) |nu|^(p - k),
    times sign(nu) at odd k (the odd extension)."""
    magnitude = np.abs(nu)
    sign = np.sign(nu) if k % 2 else None
    out = []
    for c, e in _TFD_DERIVATIVES[k]:
        term = magnitude**e
        term *= c
        if sign is not None:
            term *= sign
        out.append(term)
    return tuple(out)


@dataclass
class EnergyBreakdown:
    thomas_fermi: float
    weizsacker: float
    dirac: float
    coulomb: float
    zeeman: float

    @property
    def total(self):
        return self.thomas_fermi + self.weizsacker + self.dirac + self.coulomb + self.zeeman

    def as_dict(self):
        """The five terms and their total."""
        return {**asdict(self), "total": self.total}


def energy_supercell(state: State, h=0.0) -> EnergyBreakdown:
    """Evaluate the functional at a state against the background of its
    grid (V is eliminated through the Coulomb pairing; state.V and
    state.gauge do not enter)."""
    grid = state.grid
    nup = state.nu_plus.values
    num = state.nu_minus.values

    (tf_plus, dirac_plus), (tf_minus, dirac_minus) = (tfd_derivatives(nu, 0) for nu in (nup, num))
    tf = grid.integrate(tf_plus + tf_minus)
    # spectral form w_quad sum |k|^2_h |y|^2 over the half-spectrum
    # coordinates y (Grid.to_y): exactly the quadratic form of the -Laplacian
    # in the residual, so the functional and its Euler-Lagrange map stay
    # variationally consistent for every representable field
    y = grid.to_y(np.stack([nup, num]))
    weiz = grid.w_quad * float(np.sum(grid.k_sq_half * (y.real**2 + y.imag**2)))
    dirac = grid.integrate(dirac_plus + dirac_minus)

    src = state.rho_values() - grid.rho_b
    m = grid.mean(src)
    # relative to the background's charge: rho - rho_b itself is roundoff
    # on a uniform background
    tolerance = COULOMB_MEAN_TOL * grid.l2n(grid.rho_b)
    if abs(m) > tolerance:
        raise SolvabilityError(
            f"Coulomb term needs mean-zero rho - rho_b; mean is {m:.3e}",
            mean=m,
            tolerance=float(tolerance),
        )
    src = src - m
    coulomb = 0.5 * grid.coulomb_pairing(src, src)

    zeeman = zeeman_coupling(state, h)
    return EnergyBreakdown(tf, weiz, dirac, coulomb, zeeman)


def zeeman_coupling(state: State, h) -> float:
    """- \\int_{n Gamma} h (nu_+^2 - nu_-^2)."""
    grid = state.grid
    hv = as_h_values(h, grid)
    return -grid.integrate(hv * state.m_values())
