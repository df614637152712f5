"""Newton iteration from the two-scale initial point to an exact solution.

The iteration keeps the linearization frozen at the initial state,

    u^{k+1} = u^k - L_{u0}^{-1} F(u^k),

solving each step inexactly with MINRES (the operator is symmetric but
indefinite) preconditioned by the absolute value of the mean-coefficient
symbol, |L_bar(k)|^{-1} with its eigenvalues floored at
linop.ABS_SYMBOL_FLOOR, which is symmetric positive definite.  MINRES
runs on the isometric half-spectrum coordinates y of the grid (Grid.to_y,
where |y| is the Euclidean norm of the grid values): there the
preconditioner is applied bin-wise and the operator with one transform pair
(LinearizedOperator.half_spectrum_pair), and the step's H^2 norm follows
from y by Parseval.  Step k stops MINRES at the relative tolerance

    min(max(eta_k, inner_factor * tol / |b_k|, 1e-13), 0.1)

on its right-hand side b_k, with the forcing term eta_0 = FORCING_FIRST and
eta_k = min(FORCING_MAX, 0.9 (|F_k| / |F_{k-1}|)^2) (Eisenstat and Walker's
choice 2, capped): the early steps, which the frozen Jacobian only contracts,
are not solved to the floor inner_factor * tol, which binds near the end.
The residual F(u^k) is evaluated once per iterate
(residual.residual_system), and its averaged norm is read from it
(residual.residual_norm).  Contraction of the increment sequence in the
averaged H^2 norm is recorded as the convergence diagnostic; distances to
the initial point and to the locally periodic approximation quantify the
asymptotic error orders.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse.linalg import minres

from . import fieldio
from .fieldio import config_option
from .errors import DivergenceError, LinearSolveError, StabilityGapError
from .grids import Grid, ScalarField, State, as_h_values
from .linop import LinearizedOperator, spectral_gap
from .residual import gauge_fit, residual_norm, residual_system

INNER_MAXITER = 4000  # MINRES steps of one inner solve (twice that on its retry)
FORCING_FIRST = 1e-5  # forcing term eta_0 of the first inner solve
FORCING_MAX = 1e-3  # cap of the later forcing terms eta_k
GAP_THRESHOLD = 1e-6  # smallest gap of the frozen operator that check_gap accepts


@dataclass
class NewtonOptions:
    tol: float = config_option(1e-10, exclusiveMinimum=0)  # residual target, averaged (L^2_n)^3 norm
    maxiter: int = config_option(30, minimum=1)
    # floor of each inner solve's target, relative to the outer target
    inner_factor: float = config_option(0.01, exclusiveMinimum=0)
    refresh_jacobian: bool = config_option(False)  # re-linearize each step (off: frozen)
    check_gap: bool = config_option(False)  # gap of the frozen operator before iterating
    seed: int = 0


@dataclass
class NewtonTrace:
    iterates: list[float] = field(default_factory=list)         # residual norms
    increments: list[float] = field(default_factory=list)       # H^2_n step sizes
    contraction_ratios: list[float] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)
    inner_rtols: list[float] = field(default_factory=list)      # MINRES rtol asked per step
    distance_to_u0: float = 0.0
    distance_to_cb: float | None = None
    gap_estimate: float | None = None
    converged: bool = False

    @property
    def contraction_max(self):
        return max(self.contraction_ratios) if self.contraction_ratios else 0.0

    def to_json(self):
        return fieldio.json_text(asdict(self))

    def write_csv(self, path):
        """One row per iterate k: its residual, the increment that leaves it
        and the contraction ratio that reaches it (empty where none is)."""

        def entry(values, i):
            return values[i] if 0 <= i < len(values) else None

        rows = [
            (k, res, entry(self.increments, k), entry(self.contraction_ratios, k - 1))
            for k, res in enumerate(self.iterates)
        ]
        fieldio.write_csv(path, ["step", "residual", "increment", "ratio"], rows)


def h2_triple_norm(grid: Grid, y):
    """Averaged H^2 norm of a ``(3,) + shape`` stack from its half-spectrum
    coordinates ``y`` (Grid.to_y)."""
    return float(np.sqrt(np.sum(grid.hk_norm_y(y, 2) ** 2)))


def state_distance(a: State, b: State):
    """Averaged H^2 distance between states; potentials compared with their
    gauge constants included (the physically meaningful difference)."""
    return h2_triple_norm(a.grid, a.grid.to_y(a.stacked() - b.stacked()))


def newton_solve(
    u0: State,
    h_field,
    opts: NewtonOptions | None = None,
    u_cb: State | None = None,
):
    """Iterate to a solution of the Euler-Lagrange system near u0.

    Returns (state, NewtonTrace).  The Jacobian stays frozen at u0 unless
    ``refresh_jacobian`` is set; each inner solve stops at its forcing term,
    or at ``inner_factor`` times the outer tolerance where that is looser.
    """
    opts = opts or NewtonOptions()
    grid = u0.grid
    h_sf = ScalarField(grid, as_h_values(h_field, grid))

    op = LinearizedOperator(u0, h_sf)
    trace = NewtonTrace()
    if opts.check_gap:
        trace.gap_estimate = spectral_gap(op, seed=opts.seed)
        if trace.gap_estimate < GAP_THRESHOLD:
            raise StabilityGapError(
                f"gap {trace.gap_estimate:.3e} of the frozen operator is "
                f"below the threshold {GAP_THRESHOLD:.1e}"
            )

    A, M = op.half_spectrum_pair()
    # conversion between the flat euclidean norm and the averaged L^2 norm
    l2n_per_flat = np.sqrt(grid.w_quad / grid.n_cells)
    inner_target = opts.inner_factor * opts.tol / l2n_per_flat

    work = u0.copy()
    f = residual_system(work, h_sf)
    res_norm = residual_norm(grid, f)
    trace.iterates.append(res_norm)
    grow_count = 0
    forcing = FORCING_FIRST

    for _ in range(opts.maxiter):
        if res_norm <= opts.tol:
            break
        b = grid.to_y(f).view(float).ravel()
        b_norm = np.linalg.norm(b)
        rtol = min(max(forcing, inner_target / max(b_norm, 1e-300), 1e-13), 0.1)
        # the step's target in the averaged norm; at the floor it is
        # inner_factor * tol
        target = rtol * b_norm * l2n_per_flat
        inner_count = [0]

        def cb(_):
            inner_count[0] += 1

        d, info = minres(A, b, M=M, rtol=rtol, maxiter=INNER_MAXITER, callback=cb)
        # judge the achieved linear residual in the averaged norm against
        # the step's own target (MINRES measures it in the preconditioned norm)
        achieved = np.linalg.norm(A @ d - b) * l2n_per_flat
        if info != 0 or achieved > 5 * target:
            d, info = minres(
                A, b, x0=d, M=M, rtol=max(rtol * 1e-3, 1e-14),
                maxiter=2 * INNER_MAXITER, callback=cb,
            )
            achieved = np.linalg.norm(A @ d - b) * l2n_per_flat
            if achieved > 50 * target:
                raise LinearSolveError(
                    f"inner MINRES solve stalled (info {info}, averaged residual "
                    f"{achieved:.3e} vs target {target:.1e})",
                    gap_estimate=trace.gap_estimate,
                )
        trace.inner_iterations.append(inner_count[0])
        trace.inner_rtols.append(float(rtol))

        d = d.view(complex).reshape((3,) + grid.half_shape)
        inc = h2_triple_norm(grid, d)
        if trace.increments:
            ratio = inc / trace.increments[-1]
            trace.contraction_ratios.append(float(ratio))
            grow_count = grow_count + 1 if ratio > 1.0 else 0
            if grow_count >= 3:
                raise DivergenceError(
                    f"increments grew for 3 consecutive steps (last ratio {ratio:.3f})"
                )
        trace.increments.append(float(inc))

        work = State.from_stack(grid, work.stacked() - grid.from_y(d))
        if opts.refresh_jacobian:
            A, M = LinearizedOperator(work, h_sf).half_spectrum_pair()
        f = residual_system(work, h_sf)
        res_norm = residual_norm(grid, f)
        forcing = min(FORCING_MAX, 0.9 * (res_norm / trace.iterates[-1]) ** 2)
        trace.iterates.append(res_norm)

    if trace.increments:
        # settle the gauge at its least-squares value (only ever lowers the
        # channel residuals)
        work = State(work.nu_plus, work.nu_minus, work.V, gauge_fit(work, h_sf))
        res_norm = residual_norm(grid, residual_system(work, h_sf))
        trace.iterates[-1] = res_norm

    trace.converged = bool(res_norm <= opts.tol)
    trace.distance_to_u0 = state_distance(work, u0)
    if u_cb is not None:
        trace.distance_to_cb = state_distance(work, u_cb)
    return work, trace

