"""Two-scale approximate solution on a supercell under a slow applied field.

The locally periodic leading order is the tabulated constant-field map
evaluated at the local field value.  Corrections of first and second order in
the scale ratio eps solve linear cell systems whose right-hand sides couple
slow derivatives of the field to h-derivatives of the map:

    order eps:    L_h u1 = (2 grad_z . d_h nu_cb, ..., -(1/4pi) grad_z . d_h V_cb) . grad h
    order eps^2:  L_h u2 = sources built from u1, d_h u1, d_h^2 u_cb and the
                  quadratic density terms

Because every right-hand side depends on the slow position only through
h(x), grad h(x) and hess h(x), the cell solves are performed once per
distinct sampled field value and recombined with scalar macro factors; slow
derivatives of the field are analytic.  The solves at a field value do not
depend on eps either, so a sweep over supercell factors shares one memo of
samples and factorizes each distinct value once for the whole sweep.  One
factorization is held at a time: all six solves of a sample run on its LU
before the next sample is factorized.  The assembled state

    u0(x) = u_cb(x; h(eps x)) + eps u1 + eps^2 u2

satisfies the full Euler-Lagrange system up to a residual of third order in
eps (in averaged norms), which the sweep studies measure as a slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import fieldio
from .cauchy_born import CBTable, cb_field
from .errors import PositivityLossError, StructuralError
from .grids import Grid, HField, ScalarField, State
from .linop import LinearizedOperator

FOUR_PI = 4.0 * np.pi
EIGHT_PI = 8.0 * np.pi


@dataclass
class SampleSolves:
    """All cell solves attached to one distinct macro field value."""

    h: float
    u: np.ndarray                       # (3N,) nu_+, nu_-, V_full at this h
    X1: np.ndarray                      # d u / d h
    w: dict[int, np.ndarray] = field(default_factory=dict)      # axis -> first-order unit solve
    X2: np.ndarray | None = None        # d^2 u / d h^2
    Y: dict[int, np.ndarray] = field(default_factory=dict)      # axis -> d w / d h
    P: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    Q: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    solve_residual: float = 0.0


@dataclass
class CorrectorSet:
    """Per-sample corrector data plus the gather maps for assembly."""

    table: CBTable
    h_field: HField
    eps: float
    grid: Grid                          # supercell grid
    macro_samples: np.ndarray           # distinct sampled field values
    inverse: np.ndarray                 # flat supercell point -> sample index
    micro: np.ndarray                   # flat supercell point -> cell point
    samples: list[SampleSolves]
    active_axes: list[int]
    active_pairs: list[tuple[int, int]]
    complete: bool = False

    @property
    def cell_grid(self):
        return self.table.grid

    def max_solve_residual(self):
        return max((s.solve_residual for s in self.samples), default=0.0)


class _CellContext:
    """Dense factorization of the linearized cell operator at one field
    value, with the helpers the corrector sources need."""

    def __init__(self, table: CBTable, h: float, nu_floor=1e-12):
        grid = table.grid
        self.grid = grid
        self.h = h
        self.N = grid.total_points
        state = table.state_at(h)
        self.nup = state.nu_plus.values
        self.num = state.nu_minus.values
        if min(self.nup.min(), self.num.min()) <= nu_floor:
            raise PositivityLossError(
                f"cell state at h = {h:.6g} is not positive; the nu^(-1/3) "
                "second-order source is singular"
            )
        self.vfull = state.v_full_values()
        self.op = LinearizedOperator(state, h)
        # the matrix is exactly symmetric, so its transpose is the same matrix
        # in Fortran order, which getrf factors in place instead of copying
        self.lu = lu_factor(self.op.dense_matrix().T, overwrite_a=True)
        self.u = np.concatenate([self.nup.ravel(), self.num.ravel(), self.vfull.ravel()])

    def solve(self, rhs):
        """Solve L_h x = rhs; returns (3N,) and the achieved residual."""
        x = lu_solve(self.lu, rhs)
        parts = self.split(x)
        out = self.op.apply(parts)
        res = np.concatenate([o.ravel() for o in out]) - rhs
        rn = np.sqrt(sum(self.grid.l2n(r.reshape(self.grid.shape)) ** 2 for r in self.split(res)))
        return x, float(rn)

    def split(self, vec):
        N = self.N
        s = self.grid.shape
        return vec[:N].reshape(s), vec[N : 2 * N].reshape(s), vec[2 * N :].reshape(s)

    def join(self, a, b, c):
        return np.concatenate([a.ravel(), b.ravel(), c.ravel()])

    def dz(self, vec, axis):
        """Cell-spectral derivative of each component of a stacked triple."""
        alpha = tuple(int(j == axis) for j in range(3))
        a, b, c = self.split(vec)
        g = self.grid
        return self.join(g.deriv(a, alpha), g.deriv(b, alpha), g.deriv(c, alpha))

    def dh_operator_apply(self, X1, vec):
        """(d/dh L_h) applied to a triple, where the coefficient derivatives
        are chained through X1 = du/dh."""
        p_plus, p_minus, q = self.split(X1)
        a, b, c = self.split(vec)
        dF_plus = (
            (140.0 / 27.0) * self.nup ** (1.0 / 3.0) * p_plus
            - (40.0 / 27.0) * self.nup ** (-1.0 / 3.0) * p_plus
            + q
            - 1.0
        )
        dF_minus = (
            (140.0 / 27.0) * self.num ** (1.0 / 3.0) * p_minus
            - (40.0 / 27.0) * self.num ** (-1.0 / 3.0) * p_minus
            + q
            + 1.0
        )
        return self.join(
            dF_plus * a + p_plus * c,
            dF_minus * b + p_minus * c,
            p_plus * a + p_minus * b,
        )


def first_order_sources(ctx: _CellContext, X1, axis):
    """Right-hand side of the order-eps system for unit slow gradient along
    ``axis``: (2 dz d_h nu_+, 2 dz d_h nu_-, -(1/4 pi) dz d_h V)."""
    d = ctx.dz(X1, axis)
    a, b, c = ctx.split(d)
    return ctx.join(2.0 * a, 2.0 * b, -c / FOUR_PI)


def second_order_sources(ctx: _CellContext, sample: SampleSolves, alpha, beta):
    """Right-hand sides of the order-eps^2 system for the macro factors
    (d_a h)(d_b h)  ->  A   and   d_a d_b h  ->  B."""
    delta = 1.0 if alpha == beta else 0.0
    wp_a, wm_a, wv_a = ctx.split(sample.w[alpha])
    wp_b, wm_b, _ = ctx.split(sample.w[beta])
    dz_w = ctx.split(ctx.dz(sample.w[alpha], beta))
    dz_Y = ctx.split(ctx.dz(sample.Y[alpha], beta))
    X1 = ctx.split(sample.X1)
    X2 = ctx.split(sample.X2)

    quad_plus = (
        -(70.0 / 27.0) * ctx.nup ** (1.0 / 3.0) + (20.0 / 27.0) * ctx.nup ** (-1.0 / 3.0)
    ) * (wp_a * wp_b)
    quad_minus = (
        -(70.0 / 27.0) * ctx.num ** (1.0 / 3.0) + (20.0 / 27.0) * ctx.num ** (-1.0 / 3.0)
    ) * (wm_a * wm_b)

    A = ctx.join(
        2.0 * dz_Y[0] + delta * X2[0] + quad_plus - wv_a * wp_b,
        2.0 * dz_Y[1] + delta * X2[1] + quad_minus - wv_a * wm_b,
        -(2.0 * dz_Y[2] + delta * X2[2]) / EIGHT_PI - 0.5 * (wp_a * wp_b + wm_a * wm_b),
    )
    B = ctx.join(
        2.0 * dz_w[0] + delta * X1[0],
        2.0 * dz_w[1] + delta * X1[1],
        -(2.0 * dz_w[2] + delta * X1[2]) / EIGHT_PI,
    )
    return A, B


def _macro_layout(table: CBTable, h_field: HField, grid: Grid, eps: float):
    if not isinstance(h_field, HField):
        raise StructuralError("two-scale construction needs an analytic HField")
    n_eff = max(grid.spec.supercell)
    if any(n not in (1, n_eff) for n in grid.spec.supercell):
        raise StructuralError(
            f"supercell factors {grid.spec.supercell} must be 1 or the sweep factor"
        )
    if abs(eps * n_eff - 1.0) > 1e-12:
        raise StructuralError(f"eps = {eps} does not match supercell factor {n_eff}")
    if grid.spec.resolution != table.grid.spec.resolution:
        raise StructuralError("supercell resolution must match the tabulated cell grid")
    h_field.check_compatible(grid, eps)
    h_vals = h_field.sample(grid, eps).values
    table.check_range(h_vals.ravel())
    uniq, inverse = np.unique(np.round(h_vals.ravel(), 12), return_inverse=True)
    res = table.grid.shape
    idx = np.indices(grid.shape)
    micro = np.ravel_multi_index(tuple(idx[j] % res[j] for j in range(3)), res).ravel()
    return uniq, inverse, micro


def _solve_sample(table: CBTable, h: float, axes, pairs) -> SampleSolves:
    """All six solves at one field value on a single factorization: du/dh,
    the first-order unit solves, d^2u/dh^2, dw/dh and the pair solves.  The
    factorization is released when this returns."""
    ctx = _CellContext(table, h)
    N = ctx.N
    residuals = []

    def solve(rhs):
        x, r = ctx.solve(rhs)
        residuals.append(r)
        return x

    X1 = solve(np.concatenate([ctx.nup.ravel(), -ctx.num.ravel(), np.zeros(N)]))
    sample = SampleSolves(h=h, u=ctx.u, X1=X1)
    for a in axes:
        sample.w[a] = solve(first_order_sources(ctx, X1, a))
    # d^2 u / d h^2: differentiate the du/dh system once more
    p_plus, p_minus, _ = ctx.split(X1)
    rhs = np.concatenate([p_plus.ravel(), -p_minus.ravel(), np.zeros(N)])
    sample.X2 = solve(rhs - ctx.dh_operator_apply(X1, X1))
    # dw/dh per axis: d(rhs)/dh - (dL/dh) w
    for a in axes:
        rhs = first_order_sources(ctx, sample.X2, a) - ctx.dh_operator_apply(X1, sample.w[a])
        sample.Y[a] = solve(rhs)
    for pair in pairs:
        A, B = second_order_sources(ctx, sample, *pair)
        sample.P[pair] = solve(A)
        sample.Q[pair] = solve(B)
    sample.solve_residual = max(residuals)
    return sample


def first_order_correctors(
    table: CBTable, h_field: HField, eps: float, grid: Grid, samples: dict | None = None
) -> CorrectorSet:
    """Per-sample cell solves at every distinct sampled field value.

    Each sample carries all its solves, second order included; the set is
    marked complete by ``second_order_correctors``.  ``samples`` memoizes
    them by (rounded field value, active axes): a sweep that passes one dict
    to every supercell factor solves each field value once.  Threads may
    share the dict: two that miss the same key at once both solve it, to the
    same result, so the race costs time only."""
    uniq, inverse, micro = _macro_layout(table, h_field, grid, eps)
    axes = h_field.active_axes(grid, eps)
    pairs = [(a, b) for a in axes for b in axes]
    if samples is None:
        samples = {}
    solved = []
    for h in map(float, uniq):
        key = (h, tuple(axes))
        if key not in samples:
            samples[key] = _solve_sample(table, h, axes, pairs)
        solved.append(samples[key])
    return CorrectorSet(
        table=table,
        h_field=h_field,
        eps=eps,
        grid=grid,
        macro_samples=uniq,
        inverse=inverse,
        micro=micro,
        samples=solved,
        active_axes=axes,
        active_pairs=pairs,
        complete=False,
    )


def second_order_correctors(cs: CorrectorSet) -> CorrectorSet:
    """Mark the set complete: the second-order solves (d^2u/dh^2, dw/dh and
    the pair solves) already ran with the first-order ones."""
    cs.complete = True
    return cs


def leading_order(table: CBTable, h_field, eps: float, grid: Grid = None) -> State:
    """The locally periodic leading-order state (same construction as
    cb_field; kept as a named stage of the expansion)."""
    return cb_field(table, h_field, eps, grid)


def _gather(cs: CorrectorSet, stacked, component):
    """Gather per-sample cell fields onto the supercell for one component."""
    N = cs.table.grid.total_points
    comp = stacked[:, component * N : (component + 1) * N]
    return comp[cs.inverse, cs.micro].reshape(cs.grid.shape)


def assemble_u0(cs: CorrectorSet, eps: float = None, grid: Grid = None, include_second=True) -> State:
    """Evaluate the two-scale sums on the supercell in atomic units."""
    if eps is not None and abs(eps - cs.eps) > 1e-15:
        raise StructuralError(f"eps = {eps} does not match the corrector set ({cs.eps})")
    if grid is not None and grid != cs.grid:
        raise StructuralError("grid does not match the corrector set")
    if include_second and not cs.complete:
        raise StructuralError("second-order correctors have not been built")
    eps = cs.eps
    grid = cs.grid

    lead = cb_field(cs.table, cs.h_field, eps, grid)
    total = [
        lead.nu_plus.values.copy(),
        lead.nu_minus.values.copy(),
        lead.v_full_values().copy(),
    ]

    grads = cs.h_field.grad_slow(grid, eps)
    for a in cs.active_axes:
        stacked = np.array([s.w[a] for s in cs.samples])
        for c in range(3):
            total[c] += eps * _gather(cs, stacked, c) * grads[a]

    if include_second:
        hess = cs.h_field.hess_slow(grid, eps)
        for pair in cs.active_pairs:
            a, b = pair
            stacked_P = np.array([s.P[pair] for s in cs.samples])
            stacked_Q = np.array([s.Q[pair] for s in cs.samples])
            fac_A = grads[a] * grads[b]
            fac_B = hess[(a, b)]
            for c in range(3):
                total[c] += eps**2 * (
                    _gather(cs, stacked_P, c) * fac_A + _gather(cs, stacked_Q, c) * fac_B
                )

    gauge = float(np.mean(total[2]))
    return State(
        ScalarField(grid, total[0]),
        ScalarField(grid, total[1]),
        ScalarField(grid, total[2] - gauge),
        gauge,
    )


def build_u0(
    table: CBTable,
    h_field: HField,
    grid: Grid,
    eps: float = None,
    include_second=True,
    samples: dict | None = None,
):
    """Convenience pipeline: correctors plus assembled state.  ``samples`` is
    the per-sweep memo of ``first_order_correctors``."""
    if eps is None:
        eps = 1.0 / max(grid.spec.supercell)
    cs = first_order_correctors(table, h_field, eps, grid, samples)
    if include_second:
        cs = second_order_correctors(cs)
    return assemble_u0(cs, include_second=include_second), cs


def save_u0(directory, name, state: State, cs: CorrectorSet, extra=None):
    """Persist the assembled state with its construction metadata."""
    meta = {
        "eps": cs.eps,
        "h_field": cs.h_field.descriptor(),
        "supercell": list(cs.grid.spec.supercell),
        "corrector_solve_residual": cs.max_solve_residual(),
        "macro_samples": [float(h) for h in cs.macro_samples],
        "second_order": cs.complete,
    }
    if extra:
        meta.update(extra)
    return fieldio.write_state(directory, name, state, meta)
