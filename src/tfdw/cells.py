"""Ground states of the periodic cell problem at constant applied field.

Two phases: a preconditioned projected gradient descent on the spin channels
(with the potential eliminated through the Poisson solve and a normalization
retraction after every step), then a full Newton iteration on the coupled
(nu_+, nu_-, V) system assembled densely on the cell grid.  The returned
solution is a certified stationary point; minimality is only checked through
the linearized gap (linop.stability_scan).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fieldio
from .fieldio import config_option
from .energy import EnergyBreakdown, energy_supercell
from .errors import DescentFailureError, DivergenceError, PositivityLossError, StructuralError
from .grids import Grid, GridSpec, LatticeSpec, ScalarField, State, random_smooth_field
# stability_scan stays importable from here: pipebench/tests checks that
# the tracer restores tfdw.cells.stability_scan
from .linop import LinearizedOperator, stability_scan  # noqa: F401
from .residual import _channel_residuals, gauge_fit, normalize_state, residual_norm, residual_system


@dataclass
class SolveOptions:
    tol: float = config_option(1e-11, exclusiveMinimum=0)  # residual target, averaged (L^2_n)^3 norm
    # projected-gradient norm to hand off to Newton
    phase1_tol: float = config_option(1e-3, exclusiveMinimum=0)
    phase1_maxiter: int = config_option(800, minimum=1)
    newton_maxiter: int = config_option(50, minimum=1)
    nu_floor: float = config_option(1e-8)  # leaving nu < nu_floor is an error, not a clamp
    c_nu: float | None = None          # certified lower bound; None = positivity only
    seed: int = 0
    perturbation: float = config_option(1e-3)


@dataclass
class CellSolution:
    state: State
    h_value: float
    energy: EnergyBreakdown
    residual_norm: float
    min_nu: float
    C_nu_ok: bool
    preset: str = "uniform"
    seed: int = 0
    phase1_iterations: int = 0
    newton_iterations: int = 0
    newton_residuals: list[float] = field(default_factory=list)

    @property
    def grid(self):
        return self.state.grid


def initial_state(lattice: LatticeSpec, grid: Grid, preset="uniform", seed=0, perturbation=1e-3) -> State:
    nu0 = np.sqrt(lattice.Z / (2.0 * lattice.volume))
    vals = np.full(grid.shape, nu0)
    if preset == "perturbed":
        rng = np.random.default_rng(seed)
        vals = vals + perturbation * random_smooth_field(grid, rng, amplitude=1.0, kmax=2)
    elif preset != "uniform":
        raise StructuralError(f"unknown init preset {preset!r}")
    state = State(
        ScalarField(grid, vals.copy()),
        ScalarField(grid, vals.copy()),
        ScalarField(grid, np.zeros(grid.shape)),
        0.0,
    )
    return normalize_state(state)


def _phase1_descent(state: State, h_value, opts: SolveOptions):
    """Projected gradient descent on (nu_+, nu_-); V eliminated each step.

    Returns (state, iterations, energy_trace); energy decreases monotonically
    (backtracking line search).  A step whose retracted state has a higher
    energy, a line search that finds no decrease, or a projected gradient or
    trial density that a field too large overflows, raises
    DescentFailureError with the trace; the last two name the field.
    """
    grid = state.grid
    rho_b = grid.rho_b
    charge = 4.0 * np.pi * grid.l2n(rho_b)
    nup = state.nu_plus.values.copy()
    num = state.nu_minus.values.copy()

    def eliminated(a, b):
        V = grid.poisson(4.0 * np.pi * (a * a + b * b - rho_b), scale=charge)
        return State(ScalarField(grid, a), ScalarField(grid, b), ScalarField(grid, V))

    def make_state(a, b):
        s = State(ScalarField(grid, a), ScalarField(grid, b), state.V, 0.0)
        return normalize_state(s)

    def energy_of(a, b):
        return energy_supercell(make_state(a, b), h_value).total

    def finite(value, what):
        if np.isfinite(value):
            return value
        msg = f"{what} overflows at iteration {iterations} under the field h = {h_value:.3e}"
        raise DescentFailureError(msg, energy_trace=trace)

    trace = [energy_of(nup, num)]
    step = 1.0
    iterations = 0
    for iterations in range(1, opts.phase1_maxiter + 1):
        # the energy gradient in (nu_+, nu_-) is twice the channel residuals
        # at the eliminated potential
        gp, gm = (2.0 * r for r in _channel_residuals(eliminated(nup, num), h_value))
        denom = grid.inner(nup, nup) + grid.inner(num, num)
        mu = (grid.inner(gp, nup) + grid.inner(gm, num)) / denom
        pgp = gp - mu * nup
        pgm = gm - mu * num
        with np.errstate(over="ignore"):
            pg_norm = finite(np.sqrt(grid.l2n(pgp) ** 2 + grid.l2n(pgm) ** 2), "projected gradient")
        if pg_norm <= opts.phase1_tol:
            break
        dp, dm = grid.helmholtz_inverse(np.stack([pgp, pgm]))
        proj = (grid.inner(dp, nup) + grid.inner(dm, num)) / denom
        dp -= proj * nup
        dm -= proj * num
        slope = grid.inner(pgp, dp) + grid.inner(pgm, dm)
        e0 = trace[-1]
        t = min(4.0 * step, 1.0)
        accepted = False
        while t > 1e-16:
            a, b = nup - t * dp, num - t * dm
            with np.errstate(over="ignore"):
                # the retraction would rescale an overflowed density to zero
                finite(grid.integrate(a * a + b * b), "trial density")
            e_try = energy_of(a, b)
            if e_try <= e0 - 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise DescentFailureError(
                f"descent stagnated at iteration {iterations} under the field h = {h_value:.3e} "
                f"(projected gradient {pg_norm:.3e})",
                energy_trace=trace,
            )
        step = t
        trial = make_state(nup - t * dp, num - t * dm)
        nup = trial.nu_plus.values
        num = trial.nu_minus.values
        e_new = energy_of(nup, num)
        trace.append(e_new)
        if e_new > e0 + 1e-13 * max(abs(e0), 1.0):
            raise DescentFailureError(
                f"descent energy increased at iteration {iterations} "
                f"({e0:.15e} -> {e_new:.15e})",
                energy_trace=trace,
            )

    return eliminated(nup, num), iterations, trace


# a chord step (frozen factors) must cut the residual at least this much
CHORD_CONTRACTION = 0.5


def chord_stalled(history):
    """The one safeguard of the chord correctors (``newton_polish`` handed
    a solve, ``cauchy_born.dual_energy``): True when the last step failed to
    cut the residual history by CHORD_CONTRACTION, so the next step
    re-linearizes at the current iterate."""
    return history[-1] > CHORD_CONTRACTION * history[-2]


def newton_polish(state: State, h_value, opts: SolveOptions, solve=None):
    """Newton on the coupled (nu_+, nu_-, V) system, dense on the cell.

    Each step solves the symmetric linearization against the scaled residual,
    evaluated once per iterate, which also gives the stopping norm; the
    potential's mean develops freely and carries the multiplier.  Without
    ``solve`` every step factors the Gamma block at its iterate (full
    Newton).  ``solve``, the solve of Gamma factors already in hand
    (``FiberOperator.solver``, a neighbouring field's), makes it a chord
    corrector: the steps run on those factors, and a step that fails to
    halve the residual (``chord_stalled``) re-linearizes at its iterate,
    whose factors then serve the next steps.  Returns (state,
    residual_norm, iterations, residual_history); ``iterations`` counts
    chord and Newton steps alike.  An iterate below ``nu_floor`` raises
    PositivityLossError, and a residual above ``tol`` after
    ``newton_maxiter`` steps DivergenceError; both name the field and carry
    ``h_value`` and the Newton ``iteration``.
    """
    grid = state.grid
    work = state.copy()
    f = residual_system(work, h_value)
    history = [residual_norm(grid, f)]
    iterations = 0
    target = 0.1 * opts.tol
    chord = solve is not None
    # a chord iterate's error is of the order of its residual, a Newton
    # iterate's of its square: a chord takes one step past the target
    finish = chord
    while iterations < opts.newton_maxiter:
        if history[-1] <= target:
            if not finish:
                break
            finish = False
        if solve is None:
            solve = LinearizedOperator(work, h_value).gamma.solver()
        d = solve(f.ravel())
        work = State.from_stack(grid, work.stacked().ravel() - d)
        iterations += 1
        min_nu = work.min_nu()
        if min_nu < opts.nu_floor:
            raise PositivityLossError(
                f"nu dropped to {min_nu:.3e} (< floor {opts.nu_floor:.1e}) at Newton step {iterations} "
                f"under the field h = {h_value:.3e}",
                min_nu=min_nu,
                h_value=float(h_value),
                iteration=iterations,
            )
        f = residual_system(work, h_value)
        history.append(residual_norm(grid, f))
        if not chord or chord_stalled(history):
            solve = None
    if history[-1] > opts.tol:
        raise DivergenceError(
            f"cell Newton stalled at residual {history[-1]:.3e} after {iterations} steps "
            f"under the field h = {h_value:.3e}",
            h_value=float(h_value),
            iteration=iterations,
        )
    # exact retraction onto the constraint, then the least-squares gauge
    work = normalize_state(work)
    work = State(work.nu_plus, work.nu_minus, work.V, gauge_fit(work, h_value))
    history.append(residual_norm(grid, residual_system(work, h_value)))
    return work, history[-1], iterations, history


def solve_cell(
    lattice: LatticeSpec,
    grid: Grid | GridSpec,
    h_value: float = 0.0,
    init="uniform",
    opts: SolveOptions | None = None,
) -> CellSolution:
    """Stationary point of the cell functional at constant applied field."""
    opts = opts or SolveOptions()
    if isinstance(grid, GridSpec):
        grid = Grid(lattice, grid)

    if isinstance(init, State):
        start, preset = init.copy(), "state"
    else:
        preset = init
        start = initial_state(lattice, grid, init, opts.seed, opts.perturbation)

    phase1_state, p1_iter, _trace = _phase1_descent(start, h_value, opts)
    phase1_state = State(
        phase1_state.nu_plus,
        phase1_state.nu_minus,
        phase1_state.V,
        gauge_fit(phase1_state, h_value),
    )
    state, res_norm, n_iter, history = newton_polish(phase1_state, h_value, opts)

    min_nu = state.min_nu()
    c_nu = opts.c_nu if opts.c_nu is not None else opts.nu_floor
    return CellSolution(
        state=state,
        h_value=float(h_value),
        energy=energy_supercell(state, h_value),
        residual_norm=res_norm,
        min_nu=min_nu,
        C_nu_ok=bool(min_nu >= c_nu),
        preset=preset,
        seed=opts.seed,
        phase1_iterations=p1_iter,
        newton_iterations=n_iter,
        newton_residuals=history,
    )


def save_solution(directory, name, sol: CellSolution):
    extra = {
        "h_value": sol.h_value,
        "energy": sol.energy.as_dict(),
        "residual_norm": sol.residual_norm,
        "min_nu": sol.min_nu,
        "C_nu_ok": sol.C_nu_ok,
        "preset": sol.preset,
        "seed": sol.seed,
    }
    return fieldio.write_state(directory, name, sol.state, extra)
