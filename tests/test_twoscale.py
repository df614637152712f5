import dataclasses

import numpy as np
import pytest

from tfdw import cauchy_born as cb
from tfdw import twoscale as ts
from tfdw.energy import tfd_derivatives
from tfdw.errors import PositivityLossError, StructuralError
from tfdw.grids import Grid, GridSpec, HField, LatticeSpec, ScalarField, State
from tfdw.linop import LinearizedOperator
from tfdw.newton import NewtonOptions, newton_solve
from tfdw.residual import residual
from tfdw.studies import fit_loglog_slope


def supergrid(table, n):
    return Grid(table.lattice, GridSpec((8, 4, 4), (n, 1, 1)))


def test_constant_field_degenerates_to_cb(cb_table):
    grid = supergrid(cb_table, 4)
    h = HField(0.05)  # a table knot
    u0, cs = ts.build_u0(cb_table, h, grid)
    assert cs.active_axes == [] and cs.active_pairs == []
    lead = cb.cb_field(cb_table, h.sample(grid))
    assert np.array_equal(u0.nu_plus.values, lead.nu_plus.values)
    assert np.array_equal(u0.nu_minus.values, lead.nu_minus.values)
    assert np.array_equal(u0.v_full_values(), lead.v_full_values())
    res = residual(u0, h.sample(grid)).norm_l2n()
    assert res <= 1e-9


def test_cb_state_is_laid_out_once_per_supercell(cb_table, monkeypatch):
    # the corrector set carries the zeroth order from its own macro layout:
    # both assemblies start from a copy of it, and no second layout is made
    grid = supergrid(cb_table, 4)
    h = HField(0.0, [((1, 0, 0), 0.06)])
    lead = cb.cb_field(cb_table, h.sample(grid))
    layouts, macro_layout = [], cb.macro_layout

    def counted(*args):
        layouts.append(args)
        return macro_layout(*args)

    monkeypatch.setattr(ts, "macro_layout", counted)
    monkeypatch.setattr(cb, "macro_layout", counted)
    u0, cs = ts.build_u0(cb_table, h, grid)
    first = ts.assemble_u0(cs, include_second=False)
    assert len(layouts) == 1
    assert np.array_equal(cs.u_cb[:2], lead.stacked()[:2])
    assert np.allclose(cs.u_cb[2], lead.v_full_values(), rtol=0, atol=1e-15)
    again = ts.assemble_u0(cs)
    assert np.array_equal(again.stacked(), u0.stacked())
    assert not np.array_equal(first.stacked(), u0.stacked())


def test_corrector_solves_satisfy_their_systems(cb_table):
    grid = supergrid(cb_table, 4)
    h = HField(0.0, [((1, 0, 0), 0.06)])
    cs = ts.first_order_correctors(cb_table, h, grid)
    cs = ts.second_order_correctors(cs)
    assert 0.0 < cs.solve_residual <= 1e-10
    # re-verify the solves at one off-knot field value through the operator
    sample = ts._solve_sample(cb_table, float(cs.macro_samples[5]), [0], [(0, 0)])
    ctx = ts._CellContext(cb_table, sample.h)
    for rhs, sol in [
        (ts.first_order_sources(ctx, sample.X1, 0), sample.w[0]),
        (ts.second_order_sources(ctx, sample, 0, 0)[0], sample.P[(0, 0)]),
        (ts.second_order_sources(ctx, sample, 0, 0)[1], sample.Q[(0, 0)]),
    ]:
        err = ctx.op.apply(sol) - rhs
        norm = np.sqrt(sum(ctx.grid.l2n(e) ** 2 for e in err))
        assert norm <= 1e-10


def test_leading_order_is_cell_exact(cb_table):
    # the order-eps^0 equations hold at every macro sample: the tabulated
    # map satisfies the constant-field system pointwise in h
    grid = supergrid(cb_table, 4)
    h = HField(0.0, [((1, 0, 0), 0.06)])
    cs = ts.first_order_correctors(cb_table, h, grid)
    for h_val in cs.macro_samples[:: max(1, len(cs.macro_samples) // 4)]:
        state = cb_table.state_at(float(h_val))
        assert residual(state, float(h_val)).norm_l2n() <= 1e-8


def test_first_order_linearity_in_gradient_data(cb_table):
    # the order-eps system is linear in the slow gradient: halving the
    # modulation amplitude halves the first-order corrector field
    grid = supergrid(cb_table, 4)
    norms = {}
    for amp in (0.01, 0.005):
        h = HField(0.0, [((1, 0, 0), amp)])
        u0 = ts.assemble_u0(ts.first_order_correctors(cb_table, h, grid), include_second=False)
        lead = cb.cb_field(cb_table, h.sample(grid))
        diff = [
            u0.nu_plus.values - lead.nu_plus.values,
            u0.nu_minus.values - lead.nu_minus.values,
            u0.v_full_values() - lead.v_full_values(),
        ]
        norms[amp] = np.sqrt(sum(grid.l2n(d) ** 2 for d in diff))
    assert norms[0.01] > 1e-9  # the corrector is genuinely nonzero
    assert abs(norms[0.01] - 2 * norms[0.005]) <= 1e-8


def test_second_order_sources_with_zeroed_first_order(cb_table):
    # with the first-order solves zeroed the second-order sources collapse
    # to the slow-Laplacian terms
    sample = ts._solve_sample(cb_table, -0.06, [0], [(0, 0)])
    ctx = ts._CellContext(cb_table, sample.h)
    zeroed = dataclasses.replace(
        sample,
        w={0: np.zeros_like(sample.w[0])},
        Y={0: np.zeros_like(sample.Y[0])},
    )
    a, b = ts.second_order_sources(ctx, zeroed, 0, 0)
    X1, X2 = sample.X1, sample.X2
    assert np.max(np.abs(a[0] - X2[0])) < 1e-14
    assert np.max(np.abs(a[1] - X2[1])) < 1e-14
    assert np.max(np.abs(a[2] + X2[2] / (8 * np.pi))) < 1e-14
    assert np.max(np.abs(b[0] - X1[0])) < 1e-14
    assert np.max(np.abs(b[2] + X1[2] / (8 * np.pi))) < 1e-14


def test_corrector_macro_smoothness(cb_table):
    grid = supergrid(cb_table, 8)
    h = HField(0.0, [((1, 0, 0), 0.08)])
    cs = ts.first_order_correctors(cb_table, h, grid)
    stacked = cs.w[0]
    hs = cs.macro_samples
    if len(hs) >= 4:
        steps = np.diff(hs)
        # uneven macro sampling: use a conservative bound on the steps
        d3 = np.diff(stacked, n=3, axis=0) / np.min(steps) ** 3
        assert np.all(np.isfinite(d3))
        assert np.max(np.abs(d3)) < 1e6


def test_structural_checks(cb_table):
    grid = supergrid(cb_table, 4)
    h = HField(0.0, [((1, 0, 0), 0.06)])
    cs = ts.first_order_correctors(cb_table, h, grid)
    with pytest.raises(StructuralError):
        ts.assemble_u0(cs, include_second=True)  # second order missing
    with pytest.raises(StructuralError):
        ts.first_order_correctors(cb_table, h.sample(grid), grid)


def test_positivity_guard_in_corrector_context(cb_table):
    # the corrector splines cached on cb_table must not carry over to a
    # table with other samples: the shifted table's first build solves its
    # own knots, and the guard fires there
    grid = supergrid(cb_table, 4)
    h = HField(0.0, [((1, 0, 0), 0.06)])
    ts.build_u0(cb_table, h, grid)
    shifted_solutions = [
        dataclasses.replace(
            sol,
            state=State(
                ScalarField(sol.grid, sol.state.nu_plus.values - 5.0),
                ScalarField(sol.grid, sol.state.nu_minus.values - 5.0),
                sol.state.V,
                sol.state.gauge,
            ),
        )
        for sol in cb_table.solutions
    ]
    bad = dataclasses.replace(cb_table, solutions=shifted_solutions)
    with pytest.raises(PositivityLossError):
        ts._CellContext(bad, 0.0)
    with pytest.raises(PositivityLossError):
        ts.build_u0(bad, h, grid)


def test_residual_decay_two_points(cb_table):
    # a two-point mini-sweep: one halving of eps cuts the residual by at
    # least 2^2.5 (the full sweep is exercised by the acceptance suite)
    h = HField(0.0, [((1, 0, 0), 0.08)])
    res = {}
    for n in (6, 12):
        grid = supergrid(cb_table, n)
        u0, _ = ts.build_u0(cb_table, h, grid)
        res[n] = residual(u0, h.sample(grid)).norm_l2n()
    assert res[12] <= res[6] / 2**2.5


def test_save_u0(tmp_path, cb_table):
    grid = supergrid(cb_table, 4)
    h = HField(0.0, [((1, 0, 0), 0.06)])
    u0, cs = ts.build_u0(cb_table, h, grid)
    ts.save_u0(tmp_path, "u0", u0, cs, {"note": 1})
    from tfdw import fieldio

    state, manifest = fieldio.read_state(tmp_path, "u0")
    assert manifest["eps"] == 0.25
    assert manifest["second_order"] is True
    assert 0.0 < manifest["corrector_solve_residual"] <= 1e-10
    assert np.array_equal(state.nu_plus.values, u0.nu_plus.values)


def assert_same_state(a, b):
    assert np.array_equal(a.nu_plus.values, b.nu_plus.values)
    assert np.array_equal(a.nu_minus.values, b.nu_minus.values)
    assert np.array_equal(a.v_full_values(), b.v_full_values())


def test_first_build_factorizes_each_knot_once(cb_table, factorizations):
    # n = 4 samples 17 field values; the first build on a table factorizes
    # only its knots h >= 0, one at a time
    table = dataclasses.replace(cb_table)  # same samples, empty caches
    built, peak = factorizations
    h = HField(0.0, [((1, 0, 0), 0.08)])
    u0, cs = ts.build_u0(table, h, supergrid(table, 4))
    assert len(cs.macro_samples) == 17
    assert built == [float(k) for k in table.h_samples if k >= 0] and len(built) == 9
    assert peak[0] == 1


def test_later_builds_factorize_nothing_in_any_order(cb_table, factorizations):
    # after the first build, builds at any n and in any order, repeats
    # included, factorize nothing and give every state bit for bit as a
    # build on a table of its own
    built, peak = factorizations
    h = HField(0.0, [((1, 0, 0), 0.08)])
    table = dataclasses.replace(cb_table)
    ts.build_u0(table, h, supergrid(table, 4))
    assert len(built) == 9
    ns = (8, 4, 8, 2, 4)
    states = [ts.build_u0(table, h, supergrid(table, n))[0] for n in ns]
    assert len(built) == 9
    for n, u0 in zip(ns, states):
        own = dataclasses.replace(cb_table)
        assert_same_state(u0, ts.build_u0(own, h, supergrid(own, n))[0])
    assert peak[0] == 1


def test_negative_knot_correctors_match_independent_solve(cb_table):
    # w(-h) = -S w(h), P(-h) = S P(h), Q(-h) = -S Q(h): at a knot h < 0 the
    # mirrored correctors equal a direct solve there
    spline, _ = ts.tabulate_correctors(cb_table, [0])
    knot = float(cb_table.h_samples[2])
    assert knot < 0
    direct = ts._solve_sample(cb_table, knot, [0], [(0, 0)])
    for got, want in zip(spline(knot), (direct.w[0], direct.P[(0, 0)], direct.Q[(0, 0)])):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_asymmetric_knots_are_refused(cb_table):
    table = dataclasses.replace(cb_table, h_samples=cb_table.h_samples + 1e-3)
    with pytest.raises(StructuralError):
        ts.tabulate_correctors(table, [0])


@pytest.mark.parametrize("n", [4, 8])
def test_tabulated_u0_matches_direct_solves(cb_table, n):
    # interpolation floor: u0 from the knot splines against u0 assembled
    # from a direct six-solve hierarchy at every sampled field value
    grid = supergrid(cb_table, n)
    h = HField(0.0, [((1, 0, 0), 0.08)])
    u0, cs = ts.build_u0(cb_table, h, grid)
    direct = [ts._solve_sample(cb_table, float(v), [0], [(0, 0)]) for v in cs.macro_samples]
    exact = dataclasses.replace(
        cs,
        w={0: np.array([s.w[0] for s in direct])},
        P={(0, 0): np.array([s.P[(0, 0)] for s in direct])},
        Q={(0, 0): np.array([s.Q[(0, 0)] for s in direct])},
    )
    u0_exact = ts.assemble_u0(exact)
    h_vals = h.sample(grid)
    res = residual(u0, h_vals).norm_l2n()
    res_exact = residual(u0_exact, h_vals).norm_l2n()
    assert abs(res - res_exact) <= 1e-6 * res_exact
    diff = u0.stacked() - u0_exact.stacked()
    assert np.sqrt(sum(grid.l2n(d) ** 2 for d in diff)) <= 1e-6 * res_exact


def test_ansatz_residual_slope_in_the_asymptotic_regime(cb_table):
    # the order oracle of the correctors: from n = 32 on the first-order
    # corrector shows in the residual, which falls as eps^4 there.  A
    # negated first-order source, w scaled by 1.1 or zeroed, P = Q = 0, or a
    # dL/dh without the third derivative of f each bring the slope from
    # n = 32 to 64 down to between 1 and 3
    h = HField(0.0, [((1, 0, 0), 0.0807)])
    res = {}
    for n in (32, 64):
        grid = supergrid(cb_table, n)
        u0, _ = ts.build_u0(cb_table, h, grid)
        res[n] = residual(u0, h.sample(grid)).norm_l2n()
    assert np.log2(res[32] / res[64]) >= 3.9


# a field along two axes needs a background that varies along both: on the
# workhorse lattice w_1 and the mixed pairs are roundoff
TWO_MODES = [((1, 0, 0), 0.15), ((0, 1, 0), 0.15, 0.4)]
TWO_AXIS_FIELD = HField(0.0, [((1, 0, 0), 0.04), ((1, 1, 0), 0.03, 0.3)])


def two_mode_lattice(shear=0.0):
    return LatticeSpec([[1.0, 0.0, 0.0], [shear, 1.0, 0.0], [0.0, 0.0, 1.0]], 3.0, TWO_MODES)


@pytest.fixture(scope="module")
def two_mode_table():
    return cb.build_cb_table(two_mode_lattice(), GridSpec((8, 4, 4)), h_range=0.08, step=0.02)


def test_each_unordered_pair_is_solved_and_splined_once(two_mode_table, monkeypatch):
    # per knot h >= 0: du/dh, d^2u/dh^2, w and dw/dh per axis, and P and Q
    # per unordered pair a <= b, so 2 + 2k + k(k + 1) solves; the spline
    # holds w per axis and P and Q per pair
    solves = []

    class Counted(ts._CellContext):
        def solve(self, rhs):
            solves.append(self.h)
            return super().solve(rhs)

    monkeypatch.setattr(ts, "_CellContext", Counted)
    knots = int(np.sum(two_mode_table.h_samples >= 0))
    for axes, per_knot, blocks in (([0], 6, 3), ([0, 1], 12, 8)):
        solves.clear()
        spline, _ = ts.tabulate_correctors(two_mode_table, axes)
        assert len(solves) == per_knot * knots
        assert spline(0.0).shape[0] == blocks


def test_mixed_pair_matches_its_written_out_sources(two_mode_table):
    # oracle for the mixed pair {0, 1}: P_01 and Q_01 solved from the sum of
    # the sources of both orders, spelled out here, with the cross term
    # -R''[w_0, w_1] written pointwise through f'''(nu), against the
    # tabulated blocks at a knot h > 0 (P_01 is about 1e-7 of P_00 there)
    knot = 0.04
    assert knot in two_mode_table.h_samples
    spline, _ = ts.tabulate_correctors(two_mode_table, [0, 1])
    w0, w1, P00, P01, P11, Q00, Q01, Q11 = spline(knot)
    sample = ts._solve_sample(two_mode_table, knot, [0, 1], [])
    ctx = ts._CellContext(two_mode_table, knot)
    grid = ctx.grid
    w, Y = sample.w, sample.Y

    def d(vec, axis):
        return grid.deriv(vec, tuple(int(j == axis) for j in range(3)))

    def weights(stack):
        return np.stack([stack[0], stack[1], -stack[2] / (8 * np.pi)])

    cross = np.empty_like(w[0])
    for s, nu in enumerate((ctx.nup, ctx.num)):
        third = sum(tfd_derivatives(nu, 3))
        cross[s] = 0.5 * third * w[0][s] * w[1][s] + w[0][2] * w[1][s] + w[0][s] * w[1][2]
    cross[2] = w[0][0] * w[1][0] + w[0][1] * w[1][1]
    A = weights(2 * d(Y[0], 1) + 2 * d(Y[1], 0)) - cross
    B = weights(2 * d(w[0], 1) + 2 * d(w[1], 0))
    for got, rhs in ((P01, A), (Q01, B)):
        want, _ = ctx.solve(rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert 0.0 < np.max(np.abs(P01)) < 1e-6 * np.max(np.abs(P00))


def test_mixed_pairs_enter_u0_only_through_their_sum(two_mode_table, monkeypatch):
    # the mixed pair carries the sum of its two orders' sources, so the
    # asymmetric cross term -w_V,a w_pm,b of each order in place of the
    # symmetric -(w_V,a w_pm,b + w_pm,a w_V,b)/2 of R''[w_a, w_b]/2, summed
    # over both orders, gives the same P_01 and the same u0
    table = dataclasses.replace(two_mode_table)  # same samples, empty caches
    grid = Grid(table.lattice, GridSpec((8, 4, 4), (4, 4, 1)))
    sources = ts.second_order_sources

    def ordered_source(ctx, sample, alpha, beta):
        delta = 1.0 if alpha == beta else 0.0
        w_a, w_b = sample.w[alpha], sample.w[beta]
        A = ts._kinetic_weights(2.0 * ctx.dz(sample.Y[alpha], beta) + delta * sample.X2)
        for s, nu in enumerate((ctx.nup, ctx.num)):
            A[s] -= 0.25 * sum(tfd_derivatives(nu, 3)) * w_a[s] * w_b[s] + w_a[2] * w_b[s]
        A[2] -= 0.5 * (w_a[0] * w_b[0] + w_a[1] * w_b[1])
        return A

    def asymmetric_sources(ctx, sample, alpha, beta):
        A = ordered_source(ctx, sample, alpha, beta)
        if alpha != beta:
            A += ordered_source(ctx, sample, beta, alpha)
        return A, sources(ctx, sample, alpha, beta)[1]

    u0, cs = ts.build_u0(table, TWO_AXIS_FIELD, grid)
    assert cs.active_axes == [0, 1] and cs.active_pairs == [(0, 0), (0, 1), (1, 1)]
    table.corrector_splines.clear()
    monkeypatch.setattr(ts, "second_order_sources", asymmetric_sources)
    u0_asym, cs_asym = ts.build_u0(table, TWO_AXIS_FIELD, grid)
    moved = np.max(np.abs(cs.P[0, 1] - cs_asym.P[0, 1]))
    assert moved <= 1e-12 * np.max(np.abs(cs.P[0, 1]))
    diff = np.max(np.abs(u0.stacked() - u0_asym.stacked()))
    assert diff <= 1e-12 * np.max(np.abs(u0.stacked()))


def test_two_axis_eps_sweep_on_a_sheared_cell():
    # the two-scale state under a field along two axes of a sheared cell, on
    # (n, n, 1) supercells (run_eps_study builds only (n, 1, 1)): Newton
    # converges from u0 at every n, the ansatz residual falls as eps^4 and
    # the distances keep their orders, 4.36 for |u* - u0| and 2.37 for
    # |u* - u_cb| (log-log fit over n = 4, 8, 12)
    lattice = two_mode_lattice(shear=0.2)
    table = cb.build_cb_table(lattice, GridSpec((8, 4, 4)), h_range=0.08, step=0.02)
    rows = []
    for n in (4, 8, 12):
        grid = Grid(lattice, GridSpec((8, 4, 4), (n, n, 1)))
        u0, cs = ts.build_u0(table, TWO_AXIS_FIELD, grid)
        u_cb = State.from_stack(grid, cs.u_cb)
        _, trace = newton_solve(u0, TWO_AXIS_FIELD.sample(grid), NewtonOptions(), u_cb=u_cb)
        assert trace.converged
        rows.append((grid.eps, trace.iterates[0], trace.distance_to_u0, trace.distance_to_cb))
    eps, ansatz, to_u0, to_cb = zip(*rows)
    assert fit_loglog_slope(eps, ansatz, drop_largest=False) == pytest.approx(4.0, abs=0.01)
    assert fit_loglog_slope(eps, to_u0, drop_largest=False) == pytest.approx(4.36, abs=0.05)
    assert fit_loglog_slope(eps, to_cb, drop_largest=False) == pytest.approx(2.37, abs=0.05)
