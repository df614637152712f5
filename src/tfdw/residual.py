"""Euler-Lagrange map of the energy functional and gauge handling.

The stationarity system for u = (nu_+, nu_-, V) under applied field h is

    r_+ = -Lap nu_+ + (5/3) nu_+^{7/3} - (4/3) nu_+^{5/3} + (V + gauge - h) nu_+
    r_- = -Lap nu_- + (5/3) nu_-^{7/3} - (4/3) nu_-^{5/3} + (V + gauge + h) nu_-
    r_V = -Lap V - 4 pi (rho - rho_b)

with rho = nu_+^2 + nu_-^2.  Fractional powers use the odd extension
t -> |t|^{p-1} t so the map stays C^1 when an iterate crosses zero; on the
physical branch nu > 0 it coincides with the plain powers.

The map is evaluated in one place, ``residual_system``, with the Poisson
row rescaled by -1/(8 pi) and its mean kept (the full Poisson row is
r_V = -8 pi F_V): its Jacobian is then exactly the symmetric block
operator of the linop module, and the mean of r_V is -4 pi times the
normalization defect (1/n^3) \\int rho - Z per cell volume.  ``Residual``
is a view of that stack, and ``residual_norm`` the one residual norm, of
(r_+, r_-, r_V).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError
from .grids import Grid, State, as_h_values
from .linop import EIGHT_PI


def odd_power(t, p):
    """Odd extension sign(t) |t|^p (equals t^p for t >= 0)."""
    return np.sign(t) * np.abs(t) ** p


def _channel_residuals(state: State, hv, laplacians=None):
    """(r_+, r_-); ``laplacians``, the Laplacians of (nu_+, nu_-), where the
    caller has them."""
    grid = state.grid
    nup = state.nu_plus.values
    num = state.nu_minus.values
    veff = state.v_full_values()
    if laplacians is None:
        laplacians = grid.laplacian(np.stack([nup, num]))
    lap_plus, lap_minus = laplacians
    r_plus = (
        -lap_plus
        + (5.0 / 3.0) * odd_power(nup, 7.0 / 3.0)
        - (4.0 / 3.0) * odd_power(nup, 5.0 / 3.0)
        + (veff - hv) * nup
    )
    r_minus = (
        -lap_minus
        + (5.0 / 3.0) * odd_power(num, 7.0 / 3.0)
        - (4.0 / 3.0) * odd_power(num, 5.0 / 3.0)
        + (veff + hv) * num
    )
    return r_plus, r_minus


def residual_system(state: State, h=0.0):
    """The residual stack (r_+, r_-, F_V), F_V = (1/8 pi) Lap V + (1/2)(rho - rho_b),
    in the ``State.stacked`` layout (module notes).  One Laplacian of the
    (nu_+, nu_-, V) stack serves all three rows."""
    grid = state.grid
    hv = as_h_values(h, grid)
    fields = np.stack([state.nu_plus.values, state.nu_minus.values, state.V.values])
    lap_plus, lap_minus, lap_v = grid.laplacian(fields)
    r_plus, r_minus = _channel_residuals(state, hv, (lap_plus, lap_minus))
    f_v = (1.0 / (8.0 * np.pi)) * lap_v + 0.5 * (state.rho_values() - grid.rho_b)
    return np.stack([r_plus, r_minus, f_v])


def residual_norm(grid: Grid, f):
    """Averaged (L^2_n)^3 norm of (r_+, r_-, r_V) from the ``residual_system``
    stack f: the full Poisson row is -8 pi f_V."""
    r_plus, r_minus, r_poisson = grid.l2n(f) * np.array([1.0, 1.0, EIGHT_PI])
    return float(np.sqrt(r_plus**2 + r_minus**2 + r_poisson**2))


@dataclass
class Residual:
    """The ``residual_system`` stack ``values`` = (r_+, r_-, F_V) on its grid."""

    grid: Grid
    values: np.ndarray

    def norm_l2n(self) -> float:
        return residual_norm(self.grid, self.values)


def residual(state: State, h=0.0) -> Residual:
    """The residual at the background of the state's grid."""
    return Residual(state.grid, residual_system(state, h))


def gauge_fit(state: State, h=0.0) -> float:
    """Least-squares gauge: the constant g minimizing
    ||r_+(g)||^2 + ||r_-(g)||^2 over the additive constant in V."""
    grid = state.grid
    hv = as_h_values(h, grid)
    probe = State(state.nu_plus, state.nu_minus, state.V, 0.0)
    a_plus, a_minus = _channel_residuals(probe, hv)
    nup = state.nu_plus.values
    num = state.nu_minus.values
    denom = grid.inner(nup, nup) + grid.inner(num, num)
    if denom <= 0.0:
        raise DegenerateStateError("cannot fit a gauge against a zero state")
    return -(grid.inner(a_plus, nup) + grid.inner(a_minus, num)) / denom


def normalize_state(state: State) -> State:
    """Retraction onto the normalization constraint by uniform rescaling
    nu -> c nu with c = sqrt(Z / ((1/n^3) \\int rho)), Z the lattice's."""
    grid = state.grid
    avg = grid.integrate(state.rho_values()) / grid.n_cells
    if avg <= 0.0:
        raise DegenerateStateError("state carries no density to normalize")
    c = float(np.sqrt(grid.lattice.Z / avg))
    return State(c * state.nu_plus, c * state.nu_minus, state.V, state.gauge)


def variational_pairing(state: State, delta_plus, delta_minus, h=0.0) -> float:
    """Pairing of the Euler-Lagrange map with a density perturbation:
    <grad E, delta> = 2 \\int (r_+ delta_+ + r_- delta_-).

    For delta tangent to the normalization constraint the gauge term drops
    out and this equals the directional derivative of the energy.
    """
    grid = state.grid
    hv = as_h_values(h, grid)
    r_plus, r_minus = _channel_residuals(state, hv)
    return 2.0 * (grid.inner(r_plus, delta_plus) + grid.inner(r_minus, delta_minus))
