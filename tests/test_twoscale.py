import dataclasses

import numpy as np
import pytest

from tfdw import cauchy_born as cb
from tfdw import twoscale as ts
from tfdw.errors import PositivityLossError, StructuralError
from tfdw.grids import Grid, GridSpec, HField, ScalarField, State
from tfdw.linop import LinearizedOperator
from tfdw.residual import residual


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
