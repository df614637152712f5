"""Closed-form oracle for the constant-background (jellium) model.

With a uniform neutral background rho_b = 2 nu0^2 the constant state
nu_+ = nu_- = nu0, V = 0 solves the Euler-Lagrange system with multiplier
lambda = (5/3) nu0^{4/3} - (4/3) nu0^{2/3}.  The linearization
block-diagonalizes in Fourier space into 3x3 symbols whose eigenvalues are
known in closed form, giving exact stability thresholds for the spin and
charge channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .fieldio import write_csv
from .grids import Grid, LatticeSpec, State, constant_field


@dataclass(frozen=True)
class JelliumParams:
    """Uniform spin channels nu_+ = nu_- = nu0 with the charge-neutral
    constant background rho_b = 2 nu0^2."""

    nu0: float

    def __post_init__(self):
        if not self.nu0 > 0:
            raise StructuralError("nu0 must be positive")

    @property
    def rho_b_const(self):
        return 2.0 * self.nu0**2

    @property
    def multiplier(self):
        """Normalization multiplier of the constant solution."""
        return (5.0 / 3.0) * self.nu0 ** (4.0 / 3.0) - (4.0 / 3.0) * self.nu0 ** (2.0 / 3.0)

    @property
    def sdw_coefficient(self):
        """c = (20/9) nu0^{4/3} - (8/9) nu0^{2/3}, the zero-momentum
        eigenvalue of the spin-antisymmetric channel."""
        return (20.0 / 9.0) * self.nu0 ** (4.0 / 3.0) - (8.0 / 9.0) * self.nu0 ** (2.0 / 3.0)


def _xi_sq(xi):
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0:
        return float(xi) ** 2
    if xi.shape == (3,):
        return float(np.dot(xi, xi))
    raise StructuralError("xi must be a scalar magnitude or a 3-vector")


def symbol_matrix(params: JelliumParams, xi):
    """The 3x3 fiber symbol at wavevector xi."""
    t = _xi_sq(xi)
    c = params.sdw_coefficient
    n0 = params.nu0
    return np.array(
        [
            [t + c, 0.0, n0],
            [0.0, t + c, n0],
            [n0, n0, -t / (8.0 * np.pi)],
        ]
    )


def reduced_block(params: JelliumParams, xi):
    """Exact 2x2 reduction on the orthogonal complement of (1,-1,0)."""
    t = _xi_sq(xi)
    c = params.sdw_coefficient
    n0 = params.nu0
    return np.array(
        [
            [t + c, np.sqrt(2.0) * n0],
            [np.sqrt(2.0) * n0, -t / (8.0 * np.pi)],
        ]
    )


def eigenvalues(params: JelliumParams, xi):
    """(lambda_1, lambda_plus, lambda_minus): the spin-antisymmetric branch
    and the two symmetric-channel branches from the 2x2 reduction."""
    t = _xi_sq(xi)
    lam1 = t + params.sdw_coefficient
    block = reduced_block(params, xi)
    vals = np.linalg.eigvalsh(block)
    return float(lam1), float(vals[1]), float(vals[0])


def sdw_threshold():
    """The spin-wave stability threshold on nu0: (2/5)^{3/2}."""
    return (2.0 / 5.0) ** 1.5


def cdw_condition(params: JelliumParams):
    """Charge-wave condition: c > -8 sqrt(pi) nu0 keeps the symmetric-channel
    branches away from zero for every wavevector."""
    return bool(params.sdw_coefficient > -8.0 * np.sqrt(np.pi) * params.nu0)


def jellium_lattice(params: JelliumParams):
    """Unit cube whose constant background realizes these parameters
    (Z = rho_b * |Gamma| = rho_b)."""
    return LatticeSpec.cubic(1.0, params.rho_b_const)


def jellium_state(params: JelliumParams, grid: Grid) -> State:
    """The constant solution as a State (gauge = -lambda so the residual
    vanishes identically)."""
    return State(
        constant_field(grid, params.nu0),
        constant_field(grid, params.nu0),
        constant_field(grid, 0.0),
        -params.multiplier,
    )


def sweep_table(nu0_values, xi_values):
    """Rows (nu0, |xi|, lambda_1, lambda_plus, lambda_minus)."""
    rows = []
    for nu0 in nu0_values:
        params = JelliumParams(float(nu0))
        for xi in xi_values:
            lam1, lamp, lamm = eigenvalues(params, xi)
            rows.append((float(nu0), float(np.sqrt(_xi_sq(xi))), lam1, lamp, lamm))
    return rows


def write_sweep_csv(path, rows):
    write_csv(path, ["nu0", "xi", "lambda_1", "lambda_plus", "lambda_minus"], rows)


def sdw_threshold_bisection(lo=0.1, hi=1.0, tol=1e-10):
    """Locate the sign change of the zero-momentum spin-channel eigenvalue by
    bisection on nu0 (independent of the closed-form threshold)."""

    def channel_min(nu0):
        lam1, _, _ = eigenvalues(JelliumParams(nu0), 0.0)
        return lam1

    f_lo = channel_min(lo)
    f_hi = channel_min(hi)
    if f_lo * f_hi > 0:
        raise StructuralError("bisection bracket does not straddle the threshold")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if channel_min(mid) * f_lo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
