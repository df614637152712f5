"""Euler-Lagrange map of the energy functional and gauge handling.

The stationarity system for u = (nu_+, nu_-, V) under applied field h is

    r_+ = -Lap nu_+ + (5/3) nu_+^{7/3} - (4/3) nu_+^{5/3} + (V + gauge - h) nu_+
    r_- = -Lap nu_- + (5/3) nu_-^{7/3} - (4/3) nu_-^{5/3} + (V + gauge + h) nu_-
    r_V = -Lap V - 4 pi (rho - rho_b)

with rho = nu_+^2 + nu_-^2.  Fractional powers use the odd extension
t -> |t|^{p-1} t so the map stays C^1 when an iterate crosses zero; on the
physical branch nu > 0 it coincides with the plain powers.

For solvers the Poisson row is rescaled by -1/(8 pi)
(``residual_system``): with that scaling the Jacobian of the map is exactly
the symmetric block operator of the linop module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError
from .grids import ScalarField, State, as_h_values


def odd_power(t, p):
    """Odd extension sign(t) |t|^p (equals t^p for t >= 0)."""
    return np.sign(t) * np.abs(t) ** p


@dataclass
class Residual:
    """Euler-Lagrange residual fields.

    ``r_poisson`` is stored mean-free; the removed mean is
    ``4 pi * constraint_defect / |Gamma|`` where ``constraint_defect`` is the
    violation of the volume-averaged normalization (1/n^3) \\int rho = Z.
    """

    r_plus: ScalarField
    r_minus: ScalarField
    r_poisson: ScalarField
    constraint_defect: float

    @property
    def grid(self):
        return self.r_plus.grid

    def poisson_full_values(self):
        """The unscaled Poisson residual -Lap V - 4 pi (rho - rho_b),
        mean included."""
        mean_removed = 4.0 * np.pi * self.constraint_defect / self.grid.vol_cell
        return self.r_poisson.values - mean_removed

    def norm_l2n(self) -> float:
        """Averaged (L^2_n)^3 norm of (r_+, r_-, full Poisson residual)."""
        g = self.grid
        return float(
            np.sqrt(
                g.l2n(self.r_plus.values) ** 2
                + g.l2n(self.r_minus.values) ** 2
                + g.l2n(self.poisson_full_values()) ** 2
            )
        )


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


def residual(state: State, h=0.0) -> Residual:
    """The residual fields at the background of the state's grid."""
    grid = state.grid
    hv = as_h_values(h, grid)
    r_plus, r_minus = _channel_residuals(state, hv)
    src = 4.0 * np.pi * (state.rho_values() - grid.rho_b)
    mean_src = grid.mean(src)
    r_pois = -grid.laplacian(state.V.values) - (src - mean_src)
    defect = grid.integrate(state.rho_values()) / grid.n_cells - grid.lattice.Z
    return Residual(
        ScalarField(grid, r_plus),
        ScalarField(grid, r_minus),
        ScalarField(grid, r_pois),
        defect,
    )


def residual_system(state: State, h=0.0):
    """Residual triple with the Poisson row scaled by -1/(8 pi), mean kept:

        F_V = (1/8 pi) Lap V + (1/2)(rho - rho_b)

    The Jacobian of (r_+, r_-, F_V) is the symmetric linearized operator, so
    this is the form Newton-type solvers consume.  Returns the ``(3,) +
    shape`` stack in the ``State.stacked`` layout.  One Laplacian of the
    (nu_+, nu_-, V) stack serves all three rows.
    """
    grid = state.grid
    hv = as_h_values(h, grid)
    fields = np.stack([state.nu_plus.values, state.nu_minus.values, state.V.values])
    lap_plus, lap_minus, lap_v = grid.laplacian(fields)
    r_plus, r_minus = _channel_residuals(state, hv, (lap_plus, lap_minus))
    f_v = (1.0 / (8.0 * np.pi)) * lap_v + 0.5 * (state.rho_values() - grid.rho_b)
    return np.stack([r_plus, r_minus, f_v])


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
