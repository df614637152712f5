"""Constant-field cell solutions as a map of the applied field.

``build_cb_table`` continues the zero-field ground state through
predictor-corrector steps in h, certifying the linearized gap at every
sample.  The tabulated map supports spline evaluation of the state, its
h-derivative, the averaged cell energy and the cell magnetization; the
``cb_field`` operation modulates the map by a slowly varying field, which is
the leading-order (locally periodic) approximation on a supercell.

A dual formulation fixes the cell magnetization instead of the field: the
constrained solve carries a second multiplier that plays exactly the role of
a constant applied field, and the two energies are Legendre transforms of one
another in averaged per-cell units.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from . import fieldio
from .cells import CellSolution, SolveOptions, chord_stalled, newton_polish, solve_cell
from .energy import energy_supercell
from .errors import (
    ContinuationStopError,
    InfeasibleConstraintError,
    RangeError,
    StabilityGapError,
    SpinSymmetryError,
    StructuralError,
    TfdwError,
)
from .grids import Grid, GridSpec, LatticeSpec, ScalarField, State, as_h_values
from .linop import LinearizedOperator, stability_scan
from .residual import residual_norm, residual_system

SPIN_SYMMETRY_TOL = 1e-12  # anchor max |nu_+ - nu_-|; the cell solve targets 1e-11


def field_source(nu_plus, nu_minus):
    """(nu_+, -nu_-, 0): minus the h-derivative of the residual, the
    right-hand side of every du/dh solve, as a ``(3,) + shape`` stack."""
    return np.stack([nu_plus, -nu_minus, np.zeros_like(nu_plus)])


def solve_du_dh(sol: CellSolution, operator: LinearizedOperator | None = None) -> State:
    """Differentiate the stationarity system in h: the derivative triple
    solves  L_h (du/dh) = (nu_+, -nu_-, 0).  ``operator``, L_h at the
    solution where the caller holds it, lends its Gamma factors
    (LinearizedOperator.gamma)."""
    s = sol.state
    rhs = field_source(s.nu_plus.values, s.nu_minus.values).ravel()
    op = operator or LinearizedOperator(s, sol.h_value)
    return State.from_stack(sol.grid, op.dense_solve(rhs))


def macro_layout(table, h_values, grid):
    """Map supercell points onto table data: the distinct field values
    (rounded to 12 digits; all inside the table's range), the index of each
    point's value among them and the index of its position within its cell."""
    if grid.spec.resolution != table.grid.spec.resolution:
        raise StructuralError("the supercell resolution must match the tabulated cell grid")
    table.check_range(h_values.ravel())
    uniq, inverse = np.unique(np.round(h_values.ravel(), 12), return_inverse=True)
    res = table.grid.shape
    idx = np.indices(grid.shape)
    micro = np.ravel_multi_index(tuple(idx[j] % res[j] for j in range(3)), res).ravel()
    return uniq, inverse, micro


def gather(rows, inverse, micro, shape):
    """Supercell ``(3,) + shape`` stack from per-value cell stacks ``rows``
    (one per distinct value, flat 3N or ``(3,) + cell shape``): point p takes
    row ``inverse[p]`` at cell point ``micro[p]``."""
    cells = np.reshape(rows, (len(rows), 3, -1))
    return cells[inverse, :, micro].T.reshape((3,) + shape)


@dataclass
class CBTable:
    """Sampled constant-field map h -> (state, averaged energy, cell
    magnetization) with derivative data and per-sample stability gaps."""

    lattice: LatticeSpec
    grid: Grid
    h_samples: np.ndarray
    solutions: list[CellSolution]
    dudh: list[State]
    E_CB: np.ndarray
    m_tot: np.ndarray
    gaps: np.ndarray
    c_nu: float
    # caches derived from the samples; init=False, so dataclasses.replace
    # starts them afresh instead of carrying them over to a changed table.
    # corrector_splines: active axes -> twoscale.tabulate_correctors result
    _state_spline: CubicSpline | None = field(default=None, init=False, repr=False)
    _energy_spline: CubicSpline | None = field(default=None, init=False, repr=False)
    _m_spline: CubicSpline | None = field(default=None, init=False, repr=False)
    corrector_splines: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def h_min(self):
        return float(self.h_samples[0])

    @property
    def h_max(self):
        return float(self.h_samples[-1])

    def anchor_index(self):
        return int(np.argmin(np.abs(self.h_samples)))

    def check_range(self, h_values):
        lo = np.min(h_values)
        hi = np.max(h_values)
        if lo < self.h_min - 1e-12 or hi > self.h_max + 1e-12:
            raise RangeError(
                f"requested field range [{lo:.6g}, {hi:.6g}] exceeds the tabulated "
                f"range [{self.h_min:.6g}, {self.h_max:.6g}]"
            )

    def state_spline(self):
        # cubic spline of collocation values (flat stacked states); values
        # are linear in the spectral coefficients, so this equals a
        # coefficient-space spline
        if self._state_spline is None:
            rows = np.array([sol.state.stacked().ravel() for sol in self.solutions])
            self._state_spline = CubicSpline(self.h_samples, rows, axis=0)
        return self._state_spline

    def energy_spline(self):
        if self._energy_spline is None:
            self._energy_spline = CubicSpline(self.h_samples, self.E_CB)
        return self._energy_spline

    def m_spline(self):
        if self._m_spline is None:
            self._m_spline = CubicSpline(self.h_samples, self.m_tot)
        return self._m_spline

    def state_at(self, h) -> State:
        """Spline-interpolated cell state at field value h."""
        self.check_range([h])
        return State.from_stack(self.grid, self.state_spline()(float(h)))

    def energy_at(self, h) -> float:
        self.check_range([h])
        return float(self.energy_spline()(float(h)))

    def m_at(self, h) -> float:
        self.check_range([h])
        return float(self.m_spline()(float(h)))

    def m_range(self):
        return float(np.min(self.m_tot)), float(np.max(self.m_tot))

    def h_for_m(self, m_target) -> float:
        """Invert the (monotone) magnetization curve through the spline."""
        lo, hi = self.m_range()
        if not (lo < m_target < hi):
            raise InfeasibleConstraintError(
                f"target magnetization {m_target:.6g} outside attainable ({lo:.6g}, {hi:.6g})"
            )
        spline = self.m_spline()
        hs = np.linspace(self.h_min, self.h_max, 2001)
        vals = spline(hs) - m_target
        idx = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        if idx.size == 0:
            raise InfeasibleConstraintError("magnetization curve does not reach the target")
        a, b = hs[idx[0]], hs[idx[0] + 1]
        return float(brentq(lambda h: float(spline(h)) - m_target, a, b, xtol=1e-14))


def spin_flip(state: State, sign=1.0) -> State:
    """``sign`` times the state with its spin channels swapped: the solution
    at -h from the one at h (sign +1), du/dh at -h from du/dh at h (sign -1)."""
    fields = (state.nu_minus, state.nu_plus, state.V)
    return State(*(ScalarField(state.grid, sign * f.values) for f in fields), sign * state.gauge)


def build_cb_table(
    lattice: LatticeSpec,
    grid: Grid | GridSpec,
    h_range: float,
    step: float,
    opts: SolveOptions | None = None,
    stability_threshold: float = 1e-6,
    stability_xi_grid=None,
    verify_samples: bool = True,
) -> CBTable:
    """Predictor-corrector continuation of the zero-field solution over
    h in [0, h_range], mirrored onto [-h_range, 0) by the spin flip.

    The background carries no spin, so (nu_+, nu_-, V, h) -> (nu_-, nu_+,
    V, -h) maps solutions to solutions: the sample at -h is ``spin_flip`` of
    its partner at h, with du/dh(-h) = -spin_flip(du/dh(h)) and the
    partner's gap, inertia, residual and Newton history (the two fibers are
    unitarily equivalent by the block swap).  E_CB and m are evaluated at the
    mirrored state, so they are exactly even and odd.  The anchor must be
    spin-symmetric: max |nu_+ - nu_-| above SPIN_SYMMETRY_TOL raises
    SpinSymmetryError.

    The anchor solve is certified with a refined stability scan; subsequent
    samples are checked on the declared xi grid, each scan warm-started
    from the eigenvectors of the one before.  A march sample's scan and its
    du/dh solve share one LinearizedOperator, so its Gamma block is
    factored once, and the next sample's corrector runs as a chord on those
    factors (``newton_polish`` handed their solve); they are released when
    it converges, before the next scan.  The anchor's du/dh factors its own
    after the anchor's refinement (the peak of the build's memory), and
    those serve step 1.  The predictor of step 1 is Euler from the anchor;
    every later one is the cubic Hermite extrapolation through the last two
    samples and their du/dh, u = 5 u_{k-2} + 2 dh u'_{k-2} - 4 u_{k-1} +
    4 dh u'_{k-1}.  Corrector divergence or a
    collapsing gap stops the march with a ContinuationStopError that reports
    the last good h, as ``partial`` the samples accepted so far
    (``h_values``, ``solutions``, ``gaps``, in increasing h from 0), and
    what the march knew at the stop: the predictor step ``dh``, the last
    certified sample's gap ``last_gap`` and its ``last_min_nu`` against
    ``c_nu``.  A corrector that leaves the positive branch after a step from
    a sample well inside C_nu points at the step, not at the branch.
    """
    opts = opts or SolveOptions()
    if isinstance(grid, GridSpec):
        grid = Grid(lattice, grid)
    if step <= 0 or h_range <= 0:
        raise StructuralError("h_range and step must be positive")
    n_steps = int(round(h_range / step))
    if abs(n_steps * step - h_range) > 1e-12:
        raise StructuralError("step must divide h_range")

    anchor = solve_cell(lattice, grid, 0.0, "uniform", opts)
    asymmetry = float(np.max(np.abs(anchor.state.nu_plus.values - anchor.state.nu_minus.values)))
    if asymmetry > SPIN_SYMMETRY_TOL:
        raise SpinSymmetryError(
            f"the zero-field anchor is not spin-symmetric (max |nu_+ - nu_-| = {asymmetry:.3e})",
            asymmetry=asymmetry,
        )
    report = stability_scan(
        anchor.state, anchor.h_value, xi_grid=stability_xi_grid, threshold=stability_threshold, refine=True
    )
    if report.classification != "stable":
        raise StabilityGapError(
            f"zero-field solution is not stable ({report.classification}, gap {report.global_gap:.3e})"
        )
    c_nu = 0.5 * anchor.min_nu if opts.c_nu is None else opts.c_nu

    entries = [(anchor, report.global_gap)]
    op = LinearizedOperator(anchor.state, anchor.h_value)
    dudh = [solve_du_dh(anchor, operator=op)]  # one du/dh per sample: predictor and table
    solve = op.gamma.solver()  # the Gamma factors in hand: the next corrector's chord
    del op

    def stop(message, dh):
        last, gap = entries[-1]
        gap_text = "unchecked" if gap is None else f"{gap:.4g}"
        return ContinuationStopError(
            f"{message} (predictor step dh = {dh:.4g}; the last certified sample, h = {last.h_value:.6g}, "
            f"has gap {gap_text} and min nu {last.min_nu:.4g} >= C_nu {c_nu:.4g})",
            last_good_h=last.h_value,
            dh=float(dh),
            last_gap=gap,
            last_min_nu=float(last.min_nu),
            c_nu=float(c_nu),
            partial={
                "h_values": [sol.h_value for sol, _ in entries],
                "solutions": [sol for sol, _ in entries],
                "gaps": [gap for _, gap in entries],
            },
        )

    for k in range(1, n_steps + 1):
        h_new = k * step
        dh = h_new - entries[-1][0].h_value
        u1, du1 = entries[-1][0].state.stacked(), dudh[-1].stacked()
        if k == 1:  # Euler from the anchor
            u = u1 + dh * du1
        else:  # cubic Hermite through the last two samples and their du/dh
            u0, du0 = entries[-2][0].state.stacked(), dudh[-2].stacked()
            u = 5.0 * u0 + 2.0 * dh * du0 - 4.0 * u1 + 4.0 * dh * du1
        try:
            state, res_norm, n_iter, history = newton_polish(
                State.from_stack(grid, u), h_new, opts, solve=solve
            )
        except TfdwError as exc:
            raise stop(f"corrector failed at h = {h_new:.6g}: {exc}", dh) from exc
        solve = None  # released before the scan
        min_nu = state.min_nu()
        sol = CellSolution(
            state=state,
            h_value=h_new,
            energy=energy_supercell(state, h_new),
            residual_norm=res_norm,
            min_nu=min_nu,
            C_nu_ok=bool(min_nu >= c_nu),
            preset="continuation",
            seed=opts.seed,
            newton_iterations=n_iter,
            newton_residuals=history,
        )
        if not sol.C_nu_ok:
            raise stop(f"nu dropped to {min_nu:.4g} below C_nu at h = {h_new:.6g}", dh)
        gap = None
        op = LinearizedOperator(state, h_new)
        if verify_samples:
            # warm-started from the previous sample's fibers; only the last
            # report is kept
            report = stability_scan(
                state,
                h_new,
                xi_grid=stability_xi_grid,
                threshold=stability_threshold,
                refine=False,
                previous=report,
                operator=op,
            )
            if report.classification != "stable":
                raise stop(
                    f"stability gap collapsed at h = {h_new:.6g} "
                    f"({report.classification}, gap {report.global_gap:.3e})",
                    dh,
                )
            gap = report.global_gap
        entries.append((sol, gap))
        dudh.append(solve_du_dh(sol, operator=op))
        solve = op.gamma.solver()
        del op

    def mirror(sol):
        flipped = spin_flip(sol.state)
        energy = energy_supercell(flipped, -sol.h_value)
        return replace(sol, state=flipped, h_value=-sol.h_value, preset="spin_flip", energy=energy)

    entries = [(mirror(sol), gap) for sol, gap in reversed(entries[1:])] + entries
    dudh = [spin_flip(du, -1.0) for du in reversed(dudh[1:])] + dudh
    solutions = [sol for sol, _ in entries]
    vol = lattice.volume
    return CBTable(
        lattice=lattice,
        grid=grid,
        h_samples=np.array([s.h_value for s in solutions]),
        solutions=solutions,
        dudh=dudh,
        E_CB=np.array([s.energy.total / vol for s in solutions]),
        m_tot=np.array([s.grid.integrate(s.state.m_values()) for s in solutions]),
        gaps=np.array([np.nan if gap is None else gap for _, gap in entries]),
        c_nu=c_nu,
    )


def cb_field(table: CBTable, h, grid=None) -> State:
    """Modulate the constant-field map by a slowly varying field: at each
    supercell point x the state is the tabulated cell solution for the local
    field value, evaluated at the point's position within its cell.  The
    field is a ScalarField (its grid is the supercell; an HField enters
    sampled, ``HField.sample``), or a constant on ``grid``."""
    if isinstance(h, ScalarField):
        grid = h.grid
    elif grid is None:
        raise StructuralError("cb_field needs a supercell grid unless given a ScalarField")
    h_vals = as_h_values(h, grid)
    uniq, inverse, micro = macro_layout(table, h_vals, grid)
    rows = table.state_spline()(uniq)  # one flat stacked state per distinct value
    return State.from_stack(grid, gather(rows, inverse, micro, grid.shape))


@dataclass
class DualSolution:
    state: State
    m_target: float
    field_multiplier: float
    energy: float            # averaged cell energy without the Zeeman term
    residual_norm: float
    constraint_defect: float


def dual_energy(
    table: CBTable, m_target: float, opts: SolveOptions | None = None, in_hand=None
) -> DualSolution:
    """Cell energy at fixed cell magnetization, started from the table's
    state at the field whose magnetization is ``m_target``.

    The solve carries two multipliers: the gauge constant for the
    normalization and a field-like multiplier mu for the magnetization,
    entering the two channels with opposite signs.  The bordered Newton
    system treats mu as an explicit unknown against the constraint row.  Each
    pass evaluates the residual once, for its error and its right-hand side.
    The steps run as a chord on the Gamma factors in hand: the first step
    of a solve that holds none linearizes at its start, and a step that
    fails to halve the error (``cells.chord_stalled``) re-linearizes at its
    iterate.  ``in_hand``, internal to ``dual_sweep``, is the one-item list
    through which consecutive solves pass their linearization; alone, the
    solve is a sweep of one point.
    """
    opts = opts or SolveOptions()
    in_hand = [None] if in_hand is None else in_hand
    grid = table.grid
    mu = table.h_for_m(m_target)
    work = table.state_at(mu)

    def constraint(state):
        return grid.integrate(state.m_values()) - m_target

    history = []
    for _ in range(opts.newton_maxiter):
        f = residual_system(work, mu)
        res_norm = residual_norm(grid, f)
        c_m = constraint(work)
        err = np.sqrt(res_norm**2 + c_m**2)
        history.append(err)
        if err <= opts.tol:
            break
        if in_hand[0] is None or len(history) > 1 and chord_stalled(history):
            in_hand[0] = LinearizedOperator(work, mu)
        nup, num = work.nu_plus.values, work.nu_minus.values
        # border: d residual / d mu (column) and the constraint row
        zero = np.zeros(grid.shape)
        border = (
            np.stack([-nup, num, zero]).ravel(),
            np.stack([2.0 * grid.w_quad * nup, -2.0 * grid.w_quad * num, zero]).ravel(),
        )
        rhs = np.append(f.ravel(), c_m)
        d = in_hand[0].dense_solve(rhs, border)
        work = State.from_stack(grid, work.stacked().ravel() - d[:-1])
        mu = mu - float(d[-1])
        if work.min_nu() < opts.nu_floor:
            raise InfeasibleConstraintError(
                f"constrained solve lost positivity targeting m = {m_target:.6g}"
            )
    else:
        raise InfeasibleConstraintError(
            f"constrained solve did not converge for m = {m_target:.6g} "
            f"(last error {history[-1]:.3e})"
        )

    energy = energy_supercell(work, 0.0).total / table.lattice.volume
    return DualSolution(
        state=work,
        m_target=float(m_target),
        field_multiplier=float(mu),
        energy=float(energy),
        residual_norm=res_norm,
        constraint_defect=float(c_m),
    )


def dual_sweep(table: CBTable, m_targets, opts: SolveOptions | None = None) -> list[DualSolution]:
    """``dual_energy`` at each of ``m_targets`` in the order given, as one
    continuation in m: each constrained solve runs its chord steps on the
    Gamma factors of the solve before it, so an ordered sweep of nearby
    targets factors about once.  The factors are released on return."""
    in_hand = [None]
    return [dual_energy(table, m, opts, in_hand=in_hand) for m in m_targets]


def save_table(directory, table: CBTable):
    """Persist the table: manifest plus per-sample state and derivative
    fields as .tfw files."""
    os.makedirs(directory, exist_ok=True)
    for i, (sol, du) in enumerate(zip(table.solutions, table.dudh)):
        fieldio.write_state(directory, f"sample_{i:03d}", sol.state, {"h_value": sol.h_value})
        fieldio.write_state(directory, f"dudh_{i:03d}", du, {"h_value": sol.h_value})
    manifest = {
        **fieldio.grid_descriptor(table.grid),
        "h_samples": [float(h) for h in table.h_samples],
        "E_CB": [float(e) for e in table.E_CB],
        "m_tot": [float(m) for m in table.m_tot],
        "gaps": [None if np.isnan(g) else float(g) for g in table.gaps],
        "c_nu": table.c_nu,
        "residual_norms": [s.residual_norm for s in table.solutions],
    }
    fieldio.write_json(os.path.join(directory, "table.json"), manifest)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_table(directory) -> CBTable:
    """Read a table written by ``save_table``; StructuralError unless its
    per-sample lists hold numbers (``gaps`` may hold null) and agree in
    length, ``c_nu`` is a number and the h samples increase strictly and are
    symmetric about 0 (the corrector mirror needs this)."""
    columns = ("h_samples", "E_CB", "m_tot", "gaps", "residual_norms")
    path = os.path.join(directory, "table.json")
    manifest = fieldio.read_manifest(path, ("lattice", "resolution", "supercell", "c_nu") + columns)
    for key in columns:
        values = manifest[key]
        if not (isinstance(values, list) and values) or not all(
            _is_number(v) or (key == "gaps" and v is None) for v in values
        ):
            raise StructuralError(f"{path}: {key} is not a non-empty list of numbers")
    if len({len(manifest[key]) for key in columns}) > 1:
        raise StructuralError(f"{path}: the lists {', '.join(columns)} differ in length")
    if not _is_number(manifest["c_nu"]):
        raise StructuralError(f"{path}: c_nu is not a number")
    h = np.array(manifest["h_samples"], dtype=float)
    if not (np.all(np.diff(h) > 0) and np.array_equal(h, -h[::-1])):
        raise StructuralError(f"{path}: h_samples are not strictly increasing and symmetric about 0")
    lattice, spec = fieldio.read_grid_descriptor(manifest, path)
    grid = Grid(lattice, spec)
    solutions = []
    dudh = []
    for i, h_value in enumerate(h):
        state, _ = fieldio.read_state(directory, f"sample_{i:03d}", grid)
        du, _ = fieldio.read_state(directory, f"dudh_{i:03d}", grid)
        min_nu = state.min_nu()
        solutions.append(
            CellSolution(
                state=state,
                h_value=float(h_value),
                energy=energy_supercell(state, float(h_value)),
                residual_norm=manifest["residual_norms"][i],
                min_nu=min_nu,
                C_nu_ok=bool(min_nu >= manifest["c_nu"]),
                preset="loaded",
            )
        )
        dudh.append(du)
    gaps = np.array([np.nan if g is None else g for g in manifest["gaps"]])
    return CBTable(
        lattice=lattice,
        grid=grid,
        h_samples=h,
        solutions=solutions,
        dudh=dudh,
        E_CB=np.array(manifest["E_CB"]),
        m_tot=np.array(manifest["m_tot"]),
        gaps=gaps,
        c_nu=manifest["c_nu"],
    )


def export_curves_csv(table: CBTable, path):
    """CSV of (h, E_CB, m_tot) over the tabulated samples."""
    fieldio.write_csv(path, ["h", "E_CB", "m_tot"], zip(table.h_samples, table.E_CB, table.m_tot))
