"""Two-scale approximate solution on a supercell under a slow applied field.

The locally periodic leading order is the tabulated constant-field map
evaluated at the local field value.  Corrections of first and second order in
the scale ratio eps solve linear cell systems L_h x = b.  Their sources carry
the slow derivatives through K = diag(1, 1, -1/(8 pi)), the row weights of
the kinetic part -K Lap of L, and the h-dependence of the state through the
second variation R''[x, y] = (dL[x]) y (``LinearizedOperator.second_variation``):
with fs = ``cauchy_born.field_source``, (dL/dh) y = R''[X1, y] - fs(y), and
d_a the cell derivative along axis a, the right-hand sides are

    X1 = du/dh:       fs(nu)            w_a:  K 2 d_a X1
    X2 = d^2u/dh^2:   2 fs(X1) - R''[X1, X1]
    Y_a = dw_a/dh:    K 2 d_a X2 - R''[X1, w_a] + fs(w_a)
    P_aa:             K (2 d_a Y_a + X2) - R''[w_a, w_a] / 2
    Q_aa:             K (2 d_a w_a + X1)
    P_ab, a < b:      K (2 d_b Y_a + 2 d_a Y_b) - R''[w_a, w_b]
    Q_ab, a < b:      K (2 d_b w_a + 2 d_a w_b)

Every right-hand side depends on the slow position only through h(x),
grad h(x) and hess h(x), so the unit solutions w_a (first order) and P_ab,
Q_ab (second order, the factors of (d_a h)(d_b h) and d_a d_b h) are smooth
functions of the field value alone, as the constant-field map is.  Both
factors are symmetric in (a, b), so each unordered pair a <= b is solved
once, a mixed pair with the summed sources of its two orders (R'' is
symmetric).  With k active axes ``_solve_sample`` makes 2 + 2k + k(k + 1)
solves on one factorization at each knot h >= 0 (6 for one axis, 12 for
two); the knots h < 0 follow by the spin flip L(-h) = S L(h) S (S swaps the
spin rows): w_a(-h) = -S w_a(h), P_ab(-h) = S P_ab(h), Q_ab(-h) = -S Q_ab(h).
A not-a-knot cubic spline in h through the knots, cached on the table per
set of active axes, gives them at the sampled field values for every eps.
The assembled state

    u0(x) = u_cb(x; h(eps x)) + eps u1 + eps^2 u2

satisfies the full Euler-Lagrange system up to a residual the analysis
bounds at third order in eps (in averaged norms).  The sweep studies measure
its slope: 3.9997 on the eps-sweep benchmark, a full order higher, most
likely because the odd-order correctors are small under a nearly uniform
background (ROADMAP item 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from . import fieldio
from .cauchy_born import CBTable, field_source, gather, macro_layout
from .errors import PositivityLossError, StructuralError
from .grids import Grid, HField, State
from .linop import EIGHT_PI, LinearizedOperator

NU_FLOOR = 1e-12  # the second-order source carries f'''(nu), singular at nu = 0


@dataclass
class SampleSolves:
    """All cell solves at one field value, each a ``(3,) + shape`` stack in
    the ``State.stacked`` layout."""

    h: float
    X1: np.ndarray                      # d u / d h
    w: dict[int, np.ndarray] = field(default_factory=dict)      # axis -> first-order unit solve
    X2: np.ndarray | None = None        # d^2 u / d h^2
    Y: dict[int, np.ndarray] = field(default_factory=dict)      # axis -> d w / d h
    P: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)  # unordered pair a <= b
    Q: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    solve_residual: float = 0.0


@dataclass
class CorrectorSet:
    """Corrector values at the distinct sampled field values plus the gather
    maps for assembly.  Each value is a ``(len(macro_samples), 3) + cell
    shape`` array: one ``State.stacked`` stack per field value.  The zeroth
    order ``u_cb`` is gathered once, as a ``(3,) + supercell shape`` stack."""

    table: CBTable
    h_field: HField
    grid: Grid                          # supercell grid
    macro_samples: np.ndarray           # distinct sampled field values
    inverse: np.ndarray                 # flat supercell point -> sample index
    micro: np.ndarray                   # flat supercell point -> cell point
    u_cb: np.ndarray                    # zeroth order, the stack of cb_field
    w: dict[int, np.ndarray]            # axis -> first-order unit solution
    P: dict[tuple[int, int], np.ndarray]  # unordered pair a <= b -> solve
    Q: dict[tuple[int, int], np.ndarray]
    active_axes: list[int]
    active_pairs: list[tuple[int, int]]   # the unordered pairs a <= b
    solve_residual: float               # largest residual of the knot solves
    complete: bool = False


class _CellContext:
    """The linearized cell operator at one field value, solved on its
    factored Gamma fiber (LinearizedOperator.dense_solve), with the cell
    derivative the corrector sources need."""

    def __init__(self, table: CBTable, h: float):
        self.grid = table.grid
        self.h = h
        state = table.state_at(h)
        self.nup = state.nu_plus.values
        self.num = state.nu_minus.values
        if state.min_nu() <= NU_FLOOR:
            raise PositivityLossError(
                f"cell state at h = {h:.6g} is not positive; the f'''(nu) of the "
                "second-order source is singular"
            )
        self.op = LinearizedOperator(state, h)

    def solve(self, rhs):
        """Solve L_h x = rhs for a ``(3,) + shape`` stack; returns x in the
        same layout and the achieved residual."""
        x = self.op.dense_solve(rhs.ravel()).reshape(rhs.shape)
        res = self.op.apply(x) - rhs
        rn = np.sqrt(sum(self.grid.l2n(r) ** 2 for r in res))
        return x, float(rn)

    def dz(self, vec, axis):
        """Cell-spectral derivative of each component of a stacked triple."""
        return self.grid.deriv(vec, tuple(int(j == axis) for j in range(3)))


def _kinetic_weights(stack):
    """K stack, K = diag(1, 1, -1/(8 pi)): the row weights of L's kinetic
    part, -K Lap, which the slow derivatives of the two-scale expansion
    carry into every source."""
    return np.stack([stack[0], stack[1], -stack[2] / EIGHT_PI])


def first_order_sources(ctx: _CellContext, X1, axis):
    """Right-hand side of the order-eps system for unit slow gradient along
    ``axis``: K 2 dz X1, X1 = d u / d h."""
    return _kinetic_weights(2.0 * ctx.dz(X1, axis))


def second_order_sources(ctx: _CellContext, sample: SampleSolves, alpha, beta):
    """Right-hand sides of the order-eps^2 system for the macro factors
    (d_a h)(d_b h)  ->  A_ab = K (2 dz_b Y_a + delta_ab X2) - R''[w_a, w_b] / 2
    and  d_a d_b h  ->  B_ab = K (2 dz_b w_a + delta_ab X1).  Both factors
    are symmetric in (a, b), so a mixed pair takes A_ab + A_ba and B_ab +
    B_ba, whose cross term is -R''[w_a, w_b]."""
    delta = 1.0 if alpha == beta else 0.0
    A = 2.0 * ctx.dz(sample.Y[alpha], beta) + delta * sample.X2
    B = 2.0 * ctx.dz(sample.w[alpha], beta) + delta * sample.X1
    if not delta:
        A += 2.0 * ctx.dz(sample.Y[beta], alpha)
        B += 2.0 * ctx.dz(sample.w[beta], alpha)
    A = _kinetic_weights(A)
    A -= (0.5 if delta else 1.0) * ctx.op.second_variation(sample.w[alpha], sample.w[beta])
    return A, _kinetic_weights(B)


def _macro_layout(table: CBTable, h_field: HField, grid: Grid):
    if not isinstance(h_field, HField):
        raise StructuralError("two-scale construction needs an analytic HField")
    n_eff = max(grid.spec.supercell)
    if any(n not in (1, n_eff) for n in grid.spec.supercell):
        raise StructuralError(f"supercell factors {grid.spec.supercell} must be 1 or the sweep factor")
    return macro_layout(table, h_field.sample(grid).values, grid)


def _solve_sample(table: CBTable, h: float, axes, pairs) -> SampleSolves:
    """All solves at one field value on a single factorization: du/dh, the
    first-order unit solves, d^2u/dh^2, dw/dh and the solves of each
    unordered pair.  The factorization is released when this returns."""
    ctx = _CellContext(table, h)
    residuals = []

    def solve(rhs):
        x, r = ctx.solve(rhs)
        residuals.append(r)
        return x

    X1 = solve(field_source(ctx.nup, ctx.num))
    sample = SampleSolves(h=h, X1=X1)
    for a in axes:
        sample.w[a] = solve(first_order_sources(ctx, X1, a))
    # the du/dh and w systems differentiated once more in h (module notes)
    R2 = ctx.op.second_variation
    sample.X2 = solve(2.0 * field_source(X1[0], X1[1]) - R2(X1, X1))
    for a in axes:
        w = sample.w[a]
        sample.Y[a] = solve(first_order_sources(ctx, sample.X2, a) - R2(X1, w) + field_source(w[0], w[1]))
    for pair in pairs:
        A, B = second_order_sources(ctx, sample, *pair)
        sample.P[pair] = solve(A)
        sample.Q[pair] = solve(B)
    sample.solve_residual = max(residuals)
    return sample


def _pairs(axes):
    return [(a, b) for i, a in enumerate(axes) for b in axes[i:]]


def tabulate_correctors(table: CBTable, axes):
    """w_a, P_ab and Q_ab on the table's knots as one not-a-knot cubic spline
    in h, whose value is a ``(blocks, 3) + cell shape`` array: w per axis,
    then P and Q per unordered pair a <= b.  ``_solve_sample`` runs at each
    knot h >= 0; each knot h < 0 is its partner's sample under the spin
    flip.  Returns the spline and the largest residual of the knot solves."""
    h = table.h_samples
    if not np.array_equal(h, -h[::-1]):
        raise StructuralError("the corrector mirror needs table knots symmetric about h = 0")
    pairs = _pairs(axes)
    # parity of each block under the spin flip: w and Q odd, P even
    parity = np.array([-1.0] * len(axes) + [1.0] * len(pairs) + [-1.0] * len(pairs))
    rows = [None] * len(h)
    residual = 0.0
    for i in np.flatnonzero(h >= 0):
        sample = _solve_sample(table, float(h[i]), axes, pairs)
        rows[i] = np.array(
            [sample.w[a] for a in axes] + [sample.P[p] for p in pairs] + [sample.Q[p] for p in pairs]
        )
        residual = max(residual, sample.solve_residual)
    for i in np.flatnonzero(h < 0):
        rows[i] = parity[:, None, None, None, None] * rows[-1 - i][:, [1, 0, 2]]
    return CubicSpline(h, np.array(rows), axis=0), residual


def first_order_correctors(table: CBTable, h_field: HField, grid: Grid) -> CorrectorSet:
    """Correctors at every distinct sampled field value from the table's
    corrector splines (``tabulate_correctors``, run on the first request for
    the field's active axes and cached on the table), and the zeroth order
    from the same macro layout.  The set carries the second-order values
    too; ``second_order_correctors`` marks it complete."""
    uniq, inverse, micro = _macro_layout(table, h_field, grid)
    u_cb = gather(table.state_spline()(uniq), inverse, micro, grid.shape)
    axes = h_field.active_axes(grid)
    pairs = _pairs(axes)
    w, P, Q, residual = {}, {}, {}, 0.0
    if axes:
        if tuple(axes) not in table.corrector_splines:
            table.corrector_splines[tuple(axes)] = tabulate_correctors(table, axes)
        spline, residual = table.corrector_splines[tuple(axes)]
        blocks = np.swapaxes(spline(uniq), 0, 1)
        w = dict(zip(axes, blocks[: len(axes)]))
        P = dict(zip(pairs, blocks[len(axes) : len(axes) + len(pairs)]))
        Q = dict(zip(pairs, blocks[len(axes) + len(pairs) :]))
    return CorrectorSet(
        table=table, h_field=h_field, grid=grid, macro_samples=uniq, inverse=inverse,
        micro=micro, u_cb=u_cb, w=w, P=P, Q=Q, active_axes=axes, active_pairs=pairs,
        solve_residual=residual,
    )


def second_order_correctors(cs: CorrectorSet) -> CorrectorSet:
    """Mark the set complete: the second-order solves (d^2u/dh^2, dw/dh and
    the pair solves) already ran with the first-order ones."""
    cs.complete = True
    return cs


def assemble_orders(cs: CorrectorSet, include_second=True):
    """The two-scale sums on the supercell in atomic units, as states: the
    sum through first order and, with ``include_second``, the sum through
    second order, which continues it (else None), so one pass gives both."""
    if include_second and not cs.complete:
        raise StructuralError("second-order correctors have not been built")
    grid = cs.grid

    def supercell(rows):
        return gather(rows, cs.inverse, cs.micro, grid.shape)

    total = cs.u_cb.copy()
    grads = cs.h_field.grad_slow(grid)
    for a in cs.active_axes:
        total += grid.eps * supercell(cs.w[a]) * grads[a]
    first = State.from_stack(grid, total)
    if not include_second:
        return first, None

    total = total.copy()  # the first-order state holds views of the sum
    hess = cs.h_field.hess_slow(grid)
    for a, b in cs.active_pairs:
        fac_A = grads[a] * grads[b]
        total += grid.eps**2 * (supercell(cs.P[a, b]) * fac_A + supercell(cs.Q[a, b]) * hess[a, b])
    return first, State.from_stack(grid, total)


def assemble_u0(cs: CorrectorSet, include_second=True) -> State:
    """Evaluate the two-scale sums on the supercell in atomic units, through
    second order or, without ``include_second``, through first order."""
    first, second = assemble_orders(cs, include_second)
    return second if include_second else first


def build_u0(table: CBTable, h_field: HField, grid: Grid):
    """Convenience pipeline: correctors plus assembled state at the grid's
    scale ratio ``grid.eps``.  The first build on ``table`` for a set of
    active axes tabulates the correctors on its knots; every later build,
    on any supercell, reuses them."""
    cs = second_order_correctors(first_order_correctors(table, h_field, grid))
    return assemble_u0(cs), cs


def save_u0(directory, name, state: State, cs: CorrectorSet, extra=None):
    """Persist the assembled state with its construction metadata."""
    meta = {
        "eps": cs.grid.eps,
        "h_field": cs.h_field.descriptor(),
        "supercell": list(cs.grid.spec.supercell),
        "corrector_solve_residual": cs.solve_residual,
        "macro_samples": [float(h) for h in cs.macro_samples],
        "second_order": cs.complete,
    }
    if extra:
        meta.update(extra)
    return fieldio.write_state(directory, name, state, meta)
