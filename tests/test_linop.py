import functools
import types

import numpy as np
import pytest

from test_grids import KERNEL_GRIDS
from tfdw import cauchy_born, jellium, linop, twoscale
from tfdw.cells import initial_state, solve_cell
from tfdw.errors import EigensolverError, StructuralError
from tfdw.grids import (
    Grid,
    GridSpec,
    LatticeSpec,
    Mode,
    ScalarField,
    State,
    random_smooth_field,
)
from tfdw.linop import (
    FiberOperator,
    LinearizedOperator,
    channel_characters,
    commensurate_xis,
    monkhorst_pack,
    spectral_gap,
    stability_scan,
    wrap_to_zone,
)
from tfdw.residual import residual_system
from tfdw.studies import extended_as_cell, measure_stability_in_n

TWO_PI = 2.0 * np.pi


def jellium_op(nu0=0.8, resolution=(4, 4, 4)):
    params = jellium.JelliumParams(nu0)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec(resolution))
    return params, grid, LinearizedOperator(jellium.jellium_state(params, grid), 0.0)


def triple_l2n(grid, triple):
    return np.sqrt(sum(grid.l2n(t) ** 2 for t in triple))


def test_apply_plane_wave_symbol():
    # a single-mode perturbation maps through the 3x3 symbol
    params, grid, op = jellium_op(0.7)
    k = TWO_PI * np.array([1.0, 0.0, 0.0])
    c = np.cos(TWO_PI * grid.cell_fraction[0])
    amp = (0.3, -0.5, 0.9)
    out = op.apply((amp[0] * c, amp[1] * c, amp[2] * c))
    M = jellium.symbol_matrix(params, k)
    expected = M @ np.array(amp)
    for got, want in zip(out, expected):
        assert np.max(np.abs(got - want * c)) < 1e-12


def test_apply_constant_potential_perturbation():
    _, grid, op = jellium_op(0.6)
    const = 0.8 * np.ones(grid.shape)
    zero = np.zeros(grid.shape)
    out = op.apply((zero, zero, const))
    assert np.max(np.abs(out[0] - 0.6 * const)) < 1e-14
    assert np.max(np.abs(out[1] - 0.6 * const)) < 1e-14
    assert np.max(np.abs(out[2])) < 1e-12


def test_symmetry_random_pairs(cell_solution, rng):
    state = cell_solution.state
    grid = state.grid
    op = LinearizedOperator(state, cell_solution.h_value)
    for _ in range(5):
        u = [random_smooth_field(grid, rng, 1.0, 2) for _ in range(3)]
        v = [random_smooth_field(grid, rng, 1.0, 2) for _ in range(3)]
        Lu = op.apply(tuple(u))
        Lv = op.apply(tuple(v))
        lhs = sum(grid.l2n_inner(a, b) for a, b in zip(Lu, v))
        rhs = sum(grid.l2n_inner(a, b) for a, b in zip(u, Lv))
        scale = triple_l2n(grid, u) * triple_l2n(grid, v)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_block_structure_dense(cell_solution):
    # dense assembly matches the operator application
    rng = np.random.default_rng(3)
    state = cell_solution.state
    grid = state.grid
    op = LinearizedOperator(state, 0.0)
    H = op.dense_matrix()
    assert np.array_equal(H, H.T)  # exactly: the cell LU factors H.T in place
    x = rng.standard_normal(op.n_dof)
    assert np.max(np.abs(H @ x - op.apply(x.reshape((3,) + grid.shape)).ravel())) < 1e-10


def test_fiber_at_zero_contains_sdw_coefficient():
    params, grid, op = jellium_op(0.9)
    vals = FiberOperator(op, (0.0, 0.0, 0.0)).eigenvalues()
    assert np.min(np.abs(vals - params.sdw_coefficient)) < 1e-12


def test_fiber_zone_wrap_equivalence():
    _, grid, op = jellium_op(0.8)
    xi = np.array([0.3, -0.7, 0.2])
    G = grid.lattice.reciprocal_vectors[0] + grid.lattice.reciprocal_vectors[2]
    a = np.sort(FiberOperator(op, xi).eigenvalues())
    b = np.sort(FiberOperator(op, xi + G).eigenvalues())
    assert np.max(np.abs(a - b)) < 1e-9


def test_fiber_requires_cell_state():
    params = jellium.JelliumParams(0.5)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4), (2, 1, 1)))
    op = LinearizedOperator(jellium.jellium_state(params, grid), 0.0)
    with pytest.raises(StructuralError):
        FiberOperator(op, (0, 0, 0))


def test_spectral_gap_against_analytic_minimum():
    params, grid, op = jellium_op(1.0)
    xis = monkhorst_pack(grid.lattice, (3, 3, 3))
    numeric = min(abs(FiberOperator(op, xi).min_eigenpair()[0]) for xi in xis)
    analytic = np.inf
    for xi in xis:
        for k1, k2, k3 in zip(*(k.ravel() for k in grid.k_cart)):
            q = (k1 + xi[0], k2 + xi[1], k3 + xi[2])
            analytic = min(analytic, min(abs(v) for v in jellium.eigenvalues(params, q)))
    assert abs(numeric - analytic) < 1e-8


def test_gap_vanishes_at_threshold():
    params, grid, op = jellium_op(jellium.sdw_threshold())
    vals = FiberOperator(op, (0.0, 0.0, 0.0)).eigenvalues()
    assert np.min(np.abs(vals)) < 1e-6


def test_stability_scan_stable_and_unstable():
    for nu0, expected in [(0.5, "stable"), (0.2, "sdw_unstable")]:
        params = jellium.JelliumParams(nu0)
        lat = jellium.jellium_lattice(params)
        grid = Grid(lat, GridSpec((4, 4, 4)))
        state = jellium.jellium_state(params, grid)
        report = stability_scan(
            state, 0.0, xi_grid=monkhorst_pack(lat, (3, 3, 3)), refine=True
        )
        assert report.classification == expected
        assert report.M * report.global_gap == pytest.approx(1.0, rel=1e-14)
        assert report.M > 0


def test_stability_report_serialization(tmp_path):
    params = jellium.JelliumParams(0.5)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    report = stability_scan(
        jellium.jellium_state(params, grid), 0.0,
        xi_grid=monkhorst_pack(lat, (2, 2, 2)), refine=False,
    )
    import json

    payload = json.loads(report.to_json())
    assert payload["classification"] == "stable"
    assert [f["n_negative"] for f in payload["fibers"]] == [grid.total_points] * len(report.fiber_records)
    report.write_csv(tmp_path / "fibers.csv")
    lines = (tmp_path / "fibers.csv").read_text().strip().split("\n")
    assert lines[0] == "xi1,xi2,xi3,gap,class"
    assert len(lines) == len(report.fiber_records) + 1


def test_channel_characters():
    N = 5
    v = np.concatenate([np.ones(N), -np.ones(N), np.zeros(N)])
    sdw, cdw = channel_characters(v, N)
    assert sdw == pytest.approx(1.0)
    assert cdw == pytest.approx(0.0, abs=1e-15)
    w = np.concatenate([np.ones(N), np.ones(N), 0.5 * np.ones(N)])
    sdw, cdw = channel_characters(w, N)
    assert sdw == pytest.approx(0.0, abs=1e-15)
    assert cdw == pytest.approx(1.0)


def test_boundedness_surrogate(rng):
    # || L u ||_{H^k} <= C || u ||_{H^{k+2}} with C stable under refinement
    lat = LatticeSpec.cubic(1.0, 2.0, [((1, 0, 0), 0.2)])
    ratios = {}
    for res in [(4, 4, 4), (8, 8, 8)]:
        grid = Grid(lat, GridSpec(res))
        base = np.sqrt(lat.Z / 2)
        state = State(
            ScalarField(grid, base + 0.2 * random_smooth_field(grid, rng, 1.0, 1)),
            ScalarField(grid, base + 0.2 * random_smooth_field(grid, rng, 1.0, 1)),
            ScalarField(grid, random_smooth_field(grid, rng, 0.3, 1)),
            -0.5,
        )
        op = LinearizedOperator(state, 0.0)
        worst = {0: 0.0, 1: 0.0}
        for _ in range(4):
            u = [random_smooth_field(grid, rng, 1.0, 1) for _ in range(3)]
            Lu = op.apply(tuple(u))
            for k in (0, 1):
                num = np.sqrt(sum(grid.hk_norm(f, k) ** 2 for f in Lu))
                den = np.sqrt(sum(grid.hk_norm(f, k + 2) ** 2 for f in u))
                worst[k] = max(worst[k], num / den)
        ratios[res] = worst
    for k in (0, 1):
        c_coarse, c_fine = ratios[(4, 4, 4)][k], ratios[(8, 8, 8)][k]
        assert c_fine <= 3.0 * c_coarse + 1.0


def test_apply_is_frechet_derivative(cell_solution, rng):
    # (F(u + t d) - F(u)) / t -> L_u d at first order in t
    state = cell_solution.state
    grid = state.grid
    op = LinearizedOperator(state, cell_solution.h_value)
    d = [random_smooth_field(grid, rng, 1.0, 2) for _ in range(3)]
    Ld = op.apply(tuple(d))

    def system(s):
        return residual_system(s, cell_solution.h_value)

    errs = []
    for t in (1e-3, 5e-4):
        pert = State(
            ScalarField(grid, state.nu_plus.values + t * d[0]),
            ScalarField(grid, state.nu_minus.values + t * d[1]),
            ScalarField(grid, state.V.values + t * d[2]),
            state.gauge,
        )
        f1 = system(pert)
        f0 = system(state)
        diff = [(a - b) / t - c for a, b, c in zip(f1, f0, Ld)]
        errs.append(triple_l2n(grid, diff))
    assert errs[1] <= 0.6 * errs[0]  # first-order vanishing


def test_fiber_completeness_on_supercell(rng):
    # supercell spectrum equals the union of commensurate cell fibers
    lat = LatticeSpec.cubic(1.0, 2.0, [((1, 0, 0), 0.2)])
    cell = Grid(lat, GridSpec((4, 4, 4)))
    base = np.sqrt(lat.Z / 2)
    nup = base + 0.1 * random_smooth_field(cell, rng, 1.0, 1)
    num = base + 0.12 * random_smooth_field(cell, rng, 1.0, 1)
    V = random_smooth_field(cell, rng, 0.2, 1)
    V -= np.mean(V)
    cell_state = State(
        ScalarField(cell, nup), ScalarField(cell, num), ScalarField(cell, V), -0.3
    )
    sup = Grid(lat, GridSpec((4, 4, 4), (2, 1, 1)))
    sup_state = State(
        ScalarField(sup, np.tile(nup, (2, 1, 1))),
        ScalarField(sup, np.tile(num, (2, 1, 1))),
        ScalarField(sup, np.tile(V, (2, 1, 1))),
        -0.3,
    )
    dense = LinearizedOperator(sup_state, 0.0).dense_matrix()
    sup_spectrum = np.sort(np.linalg.eigvalsh(dense))
    cell_op = LinearizedOperator(cell_state, 0.0)
    union = []
    for xi in commensurate_xis(lat, (2, 1, 1)):
        union.extend(FiberOperator(cell_op, xi, wrap=False).eigenvalues())
    assert np.max(np.abs(sup_spectrum - np.sort(union))) < 1e-8


def test_spectral_gap_iterative_matches_dense():
    params = jellium.JelliumParams(0.6)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4), (2, 1, 1)))
    op = LinearizedOperator(jellium.jellium_state(params, grid), 0.0)
    dense_gap = float(np.min(np.abs(np.linalg.eigvalsh(op.dense_matrix()))))
    iter_gap = spectral_gap(op, tol=1e-9, seed=0)
    assert iter_gap == pytest.approx(dense_gap, rel=1e-9)


def test_wrap_to_zone():
    lat = LatticeSpec.cubic(1.0, 1.0)
    xi = np.array([2.5 * TWO_PI, -0.6 * TWO_PI, 0.0])
    w = wrap_to_zone(lat, xi)
    assert np.all(np.abs(w) <= TWO_PI / 2 + 1e-12)
    # shift is an exact reciprocal lattice vector
    shift = (xi - w) / TWO_PI
    assert np.allclose(shift, np.round(shift), atol=1e-12)


def test_monkhorst_pack_contains_gamma():
    lat = LatticeSpec.cubic(1.0, 1.0)
    pts = monkhorst_pack(lat, (2, 2, 2))
    assert any(np.allclose(p, 0.0) for p in pts)


def _jellium_supercell_op():
    params = jellium.JelliumParams(0.6)
    grid = Grid(jellium.jellium_lattice(params), GridSpec((4, 4, 4), (2, 1, 1)))
    return LinearizedOperator(jellium.jellium_state(params, grid), 0.0)


def test_spectral_gap_nonconvergence_error(monkeypatch):
    # a three-vector Lanczos basis and one restart cannot converge: the error
    # carries the relative residual of every inner solve
    eigsh = linop.eigsh

    def one_restart(*args, **kwargs):
        return eigsh(*args, **{**kwargs, "ncv": 3, "maxiter": 1})

    monkeypatch.setattr(linop, "eigsh", one_restart)
    with pytest.raises(EigensolverError) as err:
        spectral_gap(_jellium_supercell_op())
    history = err.value.residual_history
    assert len(history) >= 1
    assert all(np.isfinite(history)) and max(history) < 1e-9
    assert "did not reach tolerance" in str(err.value)


def test_spectral_gap_inner_solve_stall(monkeypatch):
    # on the uniform state the preconditioned operator is the sign of L
    # (eigenvalues +-1), which MINRES solves in two steps and not in one
    minres = linop.minres

    def one_step(*args, **kwargs):
        return minres(*args, **{**kwargs, "maxiter": 1})

    monkeypatch.setattr(linop, "minres", one_step)
    with pytest.raises(EigensolverError) as err:
        spectral_gap(_jellium_supercell_op())
    assert "inner MINRES solve" in str(err.value)
    assert len(err.value.residual_history) == 1
    assert err.value.residual_history[0] > 1e-3


# -- the absolute-value preconditioner |L_bar|^{-1} of the mean-coefficient block,
# M_y on the half-spectrum coordinates (LinearizedOperator.half_spectrum_pair) --


def _y(grid, x):
    """The flat float view of the half-spectrum coordinates of a stack."""
    return grid.to_y(np.reshape(x, (3,) + grid.shape)).view(float).ravel()


def _gram(op, X):
    """Y^T M_y Y for the coordinates Y of the columns of X."""
    _, M = op.half_spectrum_pair()
    Y = np.column_stack([_y(op.grid, x) for x in X.T])
    return Y.T @ np.column_stack([M @ y for y in Y.T])


def test_preconditioner_is_the_sign_inverse_on_jellium():
    # on a uniform state the mean block is the operator itself, so M L is
    # the sign of L and (M L)^2 = I
    op = _jellium_supercell_op()
    A, M = op.half_spectrum_pair()
    x = _y(op.grid, np.random.default_rng(3).standard_normal(op.n_dof))
    y = M @ (A @ (M @ (A @ x)))
    assert np.linalg.norm(y - x) <= 1e-10 * np.linalg.norm(x)


def test_preconditioner_spd_on_sheared_supercell(rng):
    op = LinearizedOperator(sheared_state(rng, (2, 1, 1)), 0.05)
    X = np.random.default_rng(8).standard_normal((op.n_dof, 8))
    G = _gram(op, X)
    assert np.max(np.abs(G - G.T)) <= 1e-12 * np.max(np.abs(G))
    assert np.min(np.linalg.eigvalsh(0.5 * (G + G.T))) > 0.0


def test_preconditioner_floors_a_singular_mean_block():
    # a uniform state with F_pm = 0: at k = 0 the mean block
    # [[0, 0, nu], [0, 0, nu], [nu, nu, 0]] is singular on the spin mode
    # (1, -1, 0), which M maps to 1/ABS_SYMBOL_FLOOR times itself
    params = jellium.JelliumParams(0.6)
    grid = Grid(jellium.jellium_lattice(params), GridSpec((4, 4, 4), (2, 1, 1)))
    nu = params.nu0
    tf = (35.0 / 9.0) * nu ** (4.0 / 3.0) - (20.0 / 9.0) * nu ** (2.0 / 3.0)
    state = jellium.jellium_state(params, grid)
    op = LinearizedOperator(State(state.nu_plus, state.nu_minus, state.V, -tf), 0.0)
    assert np.max(np.abs(op.F_plus)) < 1e-14
    spin = np.stack([np.ones(grid.shape), -np.ones(grid.shape), np.zeros(grid.shape)])
    _, M = op.half_spectrum_pair()
    Ms = grid.from_y((M @ _y(grid, spin)).view(complex).reshape((3,) + grid.half_shape))
    assert np.allclose(Ms, spin / linop.ABS_SYMBOL_FLOOR, rtol=0.0, atol=1e-10)
    X = np.random.default_rng(9).standard_normal((op.n_dof, 8))
    G = _gram(op, X)
    assert np.all(np.isfinite(G))
    assert np.max(np.abs(G - G.T)) <= 1e-12 * np.max(np.abs(G))
    assert np.min(np.linalg.eigvalsh(0.5 * (G + G.T))) > 0.0


@pytest.mark.parametrize("grid_name", list(KERNEL_GRIDS))
def test_half_spectrum_pair_matches_the_full_grid_fold(grid_name):
    # A_y and M_y are built on the half spectrum; they must be, bit for bit,
    # to_y o multipliers o from_y plus the folded kinetic diagonal, and (to
    # roundoff) the fold of the mean block evaluated at every full-grid bin.
    # On a sheared grid the fold differs from the half-spectrum values on
    # the Nyquist planes, where k and its mirror are not opposite
    g = KERNEL_GRIDS[grid_name]()
    rng = np.random.default_rng(21)
    nu_plus, nu_minus, v = 1.0 + 0.1 * rng.standard_normal((3,) + g.shape)
    state = State(ScalarField(g, nu_plus), ScalarField(g, nu_minus), ScalarField(g, v - np.mean(v)), -0.3)
    op = LinearizedOperator(state, 0.05)
    A, M = op.half_spectrum_pair()
    y = g.to_y(rng.standard_normal((3,) + g.shape))
    x = y.view(float).ravel()

    k_sq = g.fold(g.k_sq)
    kinetic = np.stack([k_sq, k_sq, -k_sq / linop.EIGHT_PI])
    expected = g.to_y(op._multiply(g.from_y(y))) + kinetic * y
    first, second = A.matvec(x), A.matvec(x)
    assert np.array_equal(first, expected.view(float).ravel())
    # MINRES keeps references to earlier products: each call returns its own
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, second)

    blocks = np.zeros(g.shape + (3, 3))
    for s, (F, nu) in enumerate([(op.F_plus, op.nu_plus), (op.F_minus, op.nu_minus)]):
        blocks[..., s, s] = g.k_sq + np.mean(F)
        blocks[..., s, 2] = blocks[..., 2, s] = np.mean(nu)
    blocks[..., 2, 2] = -g.k_sq / linop.EIGHT_PI
    lam, Q = np.linalg.eigh(blocks)
    inv_abs = 1.0 / np.maximum(np.abs(lam), linop.ABS_SYMBOL_FLOOR)
    symbol = g.fold(np.einsum("...ik,...k,...jk->ij...", Q, inv_abs, Q))
    assert np.max(np.abs(op.preconditioner_symbol() - symbol)) <= 1e-15 * np.max(np.abs(symbol))
    expected = np.ascontiguousarray(np.einsum("ij...,j...->i...", symbol, y)).view(float).ravel()
    assert np.max(np.abs(M.matvec(x) - expected)) <= 1e-14 * np.max(np.abs(expected))


# -- fiber kernels: LDL^H inertia, shift-invert pair, Hellmann-Feynman gradient --


def sheared_state(rng, supercell=(1, 1, 1)):
    lat = LatticeSpec(
        [[1.0, 0.0, 0.0], [0.3, 0.9, 0.0], [0.1, -0.2, 1.1]], 2.0, [((1, 0, 0), 0.2)]
    )
    grid = Grid(lat, GridSpec((4, 4, 4), supercell))
    base = np.sqrt(lat.Z / (2 * lat.volume))
    V = random_smooth_field(grid, rng, 0.2, 1)
    return State(
        ScalarField(grid, base + 0.1 * random_smooth_field(grid, rng, 1.0, 1)),
        ScalarField(grid, base + 0.1 * random_smooth_field(grid, rng, 1.0, 1)),
        ScalarField(grid, V - np.mean(V)),
        -0.3,
    )


def test_fiber_gradient_matches_central_differences(rng):
    op = LinearizedOperator(sheared_state(rng), 0.05)
    B = op.grid.lattice.reciprocal_vectors
    xi = B.T @ np.array([-0.4, 0.2, 0.1])
    f = FiberOperator(op, xi)
    val, vec = f.min_eigenpair()
    index = int(np.argmin(np.abs(np.linalg.eigvalsh(f.matrix))))
    grad = f.eigenvalue_gradient(vec)
    step = 1e-4

    def eigenvalue(at):
        return np.linalg.eigvalsh(FiberOperator(op, at).matrix)[index]

    fd = np.array(
        [(eigenvalue(xi + step * e) - eigenvalue(xi - step * e)) / (2 * step) for e in np.eye(3)]
    )
    assert np.max(np.abs(grad)) > 0.1  # a nontrivial slope
    assert np.max(np.abs(grad - fd)) <= 1e-6


def test_sheared_reciprocal_vectors_wrap_to_exact_gamma():
    # solving for the fractional coordinates of b_j on a sheared lattice
    # leaves them a few 1e-17 off integers; the wrapped fiber must be the
    # exact Gamma fiber, whose k = 0 Coulomb mode is exactly null
    op = LinearizedOperator(sheared_state(np.random.default_rng(1234)), 0.05)
    for b in op.grid.lattice.reciprocal_vectors:
        assert np.all(wrap_to_zone(op.grid, b) == 0.0)
        f = FiberOperator(op, b)
        assert np.min(f.symbol) == 0.0
        f.factor()
        assert f.n_negative == np.count_nonzero(np.linalg.eigvalsh(f.matrix) < 0.0)


def test_gamma_fiber_is_the_folded_cell_operator_on_a_sheared_lattice():
    # at xi = 0 the fiber's symbol is the Hermitian fold (q(k) + q(-k))/2 of
    # the Grid kernels, so the Gamma fiber is dense_matrix; every fiber at
    # xi != 0 keeps the unfolded |k + xi|^2, which differs only at the
    # Nyquist modes of a sheared lattice: there the family jumps at Gamma.
    # On this unrelaxed state the top of the spectrum moves by ~85 (of 436)
    # while the inertia stays and the eigenvalue nearest zero moves 2.7e-8
    # relative; on a solved sheared cell it moves 2e-15 (README)
    op = LinearizedOperator(sheared_state(np.random.default_rng(1234)), 0.05)
    gamma = FiberOperator(op, np.zeros(3))
    near = FiberOperator(op, 1e-9 * op.grid.lattice.reciprocal_vectors[0])
    assert np.array_equal(gamma.matrix, op.dense_matrix())
    spectra = [np.linalg.eigvalsh(f.matrix) for f in (gamma, near)]
    assert np.max(np.abs(spectra[0] - spectra[1])) > 10.0
    pairs = [f.min_eigenpair() for f in (gamma, near)]
    assert gamma.n_negative == near.n_negative == op.n_points
    assert abs(pairs[0][0] - pairs[1][0]) <= 1e-7 * abs(pairs[1][0])


@pytest.mark.parametrize("lattice", ["workhorse", "sheared"])
def test_cell_solves_equal_the_dense_matrix_solve(cell_solution, lattice):
    # dense_solve, bordered (the dual's mu row) or not, and the corrector
    # context's solve run on the real Gamma factors of the Coulomb-eliminated
    # block (order 2N + 1) and must match a solve with the 3N x 3N
    # dense_matrix
    state = cell_solution.state if lattice == "workhorse" else sheared_state(np.random.default_rng(7))
    op = LinearizedOperator(state, 0.05)
    H = op.dense_matrix()
    rng = np.random.default_rng(3)
    b, column, row = rng.standard_normal((3, op.n_dof))

    def close(x, ref):
        return np.isrealobj(x) and np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    assert close(op.dense_solve(b), np.linalg.solve(H, b))
    bordered = np.block([[H, column[:, None]], [row[None, :], np.zeros((1, 1))]])
    rhs = np.append(b, 0.7)
    assert close(op.dense_solve(rhs, (column, row)), np.linalg.solve(bordered, rhs))
    table = types.SimpleNamespace(grid=state.grid, state_at=lambda h: state)
    x, _ = twoscale._CellContext(table, 0.05).solve(b.reshape((3,) + state.grid.shape))
    assert close(x.ravel(), np.linalg.solve(H, b))


def test_bordered_solve_resolves_the_soft_mode_of_a_near_singular_operator():
    # just above the spin-wave threshold the Gamma block of the jellium
    # operator has an eigenvalue ~2e-12 whose eigenvector is the dual's mu
    # border, while the bordered matrix has condition number ~5e3: block
    # elimination alone leaves a relative error ~5e-6 here, the refined
    # step must match the dense bordered solve
    _, grid, op = jellium_op(jellium.sdw_threshold() * (1.0 + 1e-11))
    H = op.dense_matrix()
    assert np.min(np.abs(np.linalg.eigvalsh(H))) < 1e-11
    nu = op.nu_plus.ravel()
    zero = np.zeros_like(nu)
    column = np.concatenate([-nu, nu, zero])
    row = 2.0 * grid.w_quad * np.concatenate([nu, -nu, zero])
    bordered = np.block([[H, column[:, None]], [row[None, :], np.zeros((1, 1))]])
    rhs = np.append(np.random.default_rng(1).standard_normal(op.n_dof), 0.3)
    ref = np.linalg.solve(bordered, rhs)
    assert np.linalg.norm(op.dense_solve(rhs, (column, row)) - ref) <= 1e-12 * np.linalg.norm(ref)

    # a zero row makes the bordered matrix singular: the step's residual
    # check reports it instead of returning inf or nan
    with pytest.raises(EigensolverError, match="bordered cell solve"):
        op.dense_solve(rhs, (column, np.zeros_like(row)))


def test_min_eigenpair_matches_full_spectrum(cell_solution):
    op = LinearizedOperator(cell_solution.state, 0.0)
    xi = cell_solution.grid.lattice.reciprocal_vectors.T @ np.array([0.25, -0.25, 0.25])
    f = FiberOperator(op, xi)
    val, vec = f.min_eigenpair()
    assert f._eigvals is None  # the factorization sufficed
    assert f.n_negative == op.n_points
    vals, vecs = np.linalg.eigh(f.matrix)
    i = int(np.argmin(np.abs(vals)))
    assert val == pytest.approx(vals[i], rel=1e-12)
    assert abs(np.vdot(vec, vecs[:, i])) == pytest.approx(1.0, abs=1e-10)


def _sheared_fiber():
    op = LinearizedOperator(sheared_state(np.random.default_rng(1234)), 0.05)
    B = op.grid.lattice.reciprocal_vectors
    return FiberOperator(op, B.T @ np.array([0.31, -0.17, 0.23]))


def _jellium_fiber(nu0, xi=(0.0, 0.0, 0.0)):
    return FiberOperator(jellium_op(nu0)[2], xi, wrap=False)


def _crossing_fiber(side):
    # jellium nu0 = 0.2 crosses zero at |xi| = 0.20996 along -b1; a relative
    # step of 1e-7 inward (N+1 negatives) or outward (N) leaves |lambda| ~ 1e-8
    params = jellium.JelliumParams(0.2)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    state = jellium.jellium_state(params, grid)
    report = stability_scan(state, 0.0, xi_grid=monkhorst_pack(lat, (3, 3, 3)), refine=True)
    xi = (1.0 + side * 1e-7) * np.asarray(report.refined_xi)
    return FiberOperator(LinearizedOperator(state, 0.0), xi, wrap=False)


@pytest.mark.parametrize(
    "make, extra_negative, floor",
    [
        (_sheared_fiber, 0, 0.0),
        (lambda: _jellium_fiber(0.2), 1, 0.0),
        (lambda: _jellium_fiber(0.5), 0, 0.0),
        (lambda: _crossing_fiber(-1), 1, 1e-15),
        (lambda: _crossing_fiber(+1), 0, 1e-15),
    ],
    ids=["sheared-generic-xi", "jellium-0.2-gamma", "jellium-0.5-gamma", "crossing-inside", "crossing-outside"],
)
def test_ldl_inertia_and_shift_invert_match_eigh(make, extra_negative, floor):
    # the inertia read from the LDL^H factors equals the eigenvalue count, and
    # the shift-invert pair is the full spectrum's nearest to zero to 1e-12
    # relative; an eigenvalue of 1e-8 is only determined to about eps |H|, so
    # the near-singular fibers compare to 1e-15 |H| instead.  eigh's eigenvalue
    # itself is off by up to eps |H| (1e-13 here, above 1e-12 * 0.044 on the
    # jellium 0.2 fiber), so the reference is the Rayleigh quotient of eigh's
    # eigenvector taken in extended precision: its error is |r|^2 / gap
    f = make()
    val, vec = f.min_eigenpair()
    vals, vecs = np.linalg.eigh(f.matrix)
    assert f.n_negative == np.count_nonzero(vals < 0) == f.n_points + extra_negative
    v = vecs[:, int(np.argmin(np.abs(vals)))].astype(np.clongdouble)
    nearest = float((np.vdot(v, f.matrix.astype(np.clongdouble) @ v) / np.vdot(v, v)).real)
    assert abs(val - nearest) <= max(1e-12 * abs(nearest), floor * np.max(np.abs(vals)))
    assert np.linalg.norm(f.matrix @ vec - val * vec) <= 1e-12 * np.max(np.abs(f.matrix))


@pytest.fixture
def factored_dims(monkeypatch):
    """Dimensions of the matrices handed to the Bunch-Kaufman
    factorization, in call order."""
    dims = []
    bunch_kaufman = linop._bunch_kaufman

    def recording(a):
        dims.append(a.shape[0])
        return bunch_kaufman(a)

    monkeypatch.setattr(linop, "_bunch_kaufman", recording)
    return dims


def _workhorse_fiber(state, frac, wrap=True):
    B = state.grid.lattice.reciprocal_vectors
    return FiberOperator(LinearizedOperator(state, 0.0), B.T @ np.asarray(frac, dtype=float), wrap)


def _supercell_fiber(state):
    _, _, big = extended_as_cell(state.grid.lattice, state.grid.shape, state, 2)
    return _workhorse_fiber(big, (0.5, 0.0, 0.0), wrap=False)


@pytest.mark.parametrize(
    "make, null_modes, extra_negative",
    [
        (lambda st: _workhorse_fiber(st, (0.0, 0.0, 0.0)), 1, 0),
        (lambda st: _workhorse_fiber(st, (0.31, -0.17, 0.23)), 0, 0),
        (lambda st: _workhorse_fiber(st, (1.0, 0.0, 0.0), wrap=False), 1, 0),
        (_supercell_fiber, 0, 0),
        (lambda st: _sheared_fiber(), 0, 0),
        (lambda st: _jellium_fiber(0.2), 1, 1),
        (lambda st: _jellium_fiber(0.5), 1, 0),
    ],
    ids=["workhorse-gamma", "workhorse-generic-xi", "unwrapped-b1", "supercell-2x1x1", "sheared", "jellium-0.2-gamma", "jellium-0.5-gamma"],
)
def test_reduced_block_inertia_and_inverse(cell_solution, factored_dims, make, null_modes, extra_negative):
    # the Coulomb-eliminated block K (2N + z with z null modes of C, the
    # plane wave k = -b_1 for the unwrapped xi = b_1) carries the inertia of
    # the 3N x 3N fiber, and block elimination on its factors inverts H
    f = make(cell_solution.state)
    N = f.n_points
    solve = f.factor()
    assert factored_dims == [2 * N + null_modes]
    H = f.matrix
    assert f.n_negative == np.count_nonzero(np.linalg.eigvalsh(H) < 0) == N + extra_negative
    X = np.column_stack([solve(e) for e in np.eye(3 * N)])
    assert np.max(np.abs(H @ X - np.eye(3 * N))) <= 1e-12


def test_certified_scan_never_assembles_the_dense_fiber(
    cell_solution, lattice_mod, factored_dims, monkeypatch
):
    # the stable workhorse scan, refinement included, factors only 2N (+1 at
    # Gamma) blocks and never builds the 3N x 3N fiber; neither do the
    # inertia bisection of an unstable scan, a near-null fiber or the
    # supercell scans of the stability-in-n study
    def dense(self):
        raise AssertionError("dense 3N x 3N fiber assembled")

    monkeypatch.setattr(FiberOperator, "matrix", property(dense))
    report = stability_scan(cell_solution.state, 0.0, refine=True)
    N = cell_solution.grid.total_points
    assert report.classification == "stable"
    assert factored_dims.count(2 * N + 1) == 1 and set(factored_dims) == {2 * N, 2 * N + 1}
    # the scan factors one corner and Gamma; the rest is the refinement
    assert factored_dims[:2] == [2 * N, 2 * N + 1] and len(factored_dims) > 2

    params = jellium.JelliumParams(0.2)
    lat = jellium.jellium_lattice(params)
    state = jellium.jellium_state(params, Grid(lat, GridSpec((4, 4, 4))))
    report = stability_scan(state, 0.0, xi_grid=monkhorst_pack(lat, (3, 3, 3)), refine=True)
    assert report.refined_gap < 1e-10
    _workhorse_fiber(cell_solution.state, (1e-7, 0.0, 0.0), wrap=False).min_eigenpair()
    reports, _ = measure_stability_in_n(lattice_mod, (8, 4, 4), n_values=(1, 2, 4))
    assert all(r.classification == "stable" for r in reports.values())

    # a table build and its corrector tabulation never assemble the dense
    # 3N cell matrix either: every cell solve runs on the Gamma fiber's
    # factors.  Each march sample's scan factors 2 of its 9 fibers, one
    # corner and Gamma: the other 7 corners are its images under the
    # mirrors and time reversal.  A march sample's du/dh solve factors
    # nothing: it reuses the factors of its scan's Gamma fiber (the
    # anchor's, after the refinement, factors its own)
    monkeypatch.setattr(LinearizedOperator, "dense_matrix", dense)
    per_scan, per_du_dh = [], []
    scan, solve_du_dh = cauchy_born.stability_scan, cauchy_born.solve_du_dh

    def counting(*args, **kwargs):
        before = len(factored_dims)
        report = scan(*args, **kwargs)
        per_scan.append((len(factored_dims) - before, len(report.fiber_records), kwargs["refine"]))
        return report

    def counting_du_dh(*args, **kwargs):
        before = len(factored_dims)
        du = solve_du_dh(*args, **kwargs)
        per_du_dh.append(len(factored_dims) - before)
        return du

    monkeypatch.setattr(cauchy_born, "stability_scan", counting)
    monkeypatch.setattr(cauchy_born, "solve_du_dh", counting_du_dh)
    table = cauchy_born.build_cb_table(lattice_mod, GridSpec((8, 4, 4)), 0.025, 0.0125)
    twoscale.tabulate_correctors(table, [0])
    anchor, *march = per_scan
    assert anchor[1:] == (9, True) and anchor[0] > 2  # the refinement factors more
    assert march == [(2, 9, False)] * 2
    assert per_du_dh == [1, 0, 0]


def _modes(*phases):
    # Z = 3 on the unit cube, one background mode along each axis with its
    # own amplitude, so no swap of axes is a symmetry
    return LatticeSpec.cubic(
        1.0, 3.0, [Mode(m, amp, phase) for m, amp, phase in zip(np.eye(3, dtype=int), (0.15, 0.1, 0.05), phases)]
    )


@pytest.mark.parametrize(
    "lattice, init, mirrors, factored",
    [
        (LatticeSpec.cubic(1.0, 3.0, [((1, 0, 0), 0.15)]), "uniform", 3, 2),
        (_modes(0.0, 0.0, 0.0), "uniform", 3, 2),
        (_modes(0.3, 0.0, 0.0), "uniform", 2, 2),
        (_modes(0.3, 0.3, 0.3), "uniform", 0, 5),
        (LatticeSpec.cubic(1.0, 3.0, [((1, 0, 0), 0.15)]), "perturbed", 0, 5),
    ],
    ids=["workhorse", "even-modes", "phase-0.3-x1", "phase-0.3-all", "perturbed-start"],
)
def test_scan_factors_one_fiber_per_orbit(factored_dims, lattice, init, mirrors, factored):
    # the 2x2x2 corners form one orbit under the mirrors the state admits
    # and time reversal (which flips every axis, so with the mirrors of two
    # axes it flips the third alone): a state even in each axis, or in two,
    # factors one corner and Gamma.  A phase on every mode, or the
    # perturbed start itself (not a solution), breaks every mirror, and
    # time reversal alone pairs the corners: 4 corners and Gamma.  Every
    # record is the one a direct factorization at its own xi gives
    grid = Grid(lattice, GridSpec((8, 4, 4)))
    if init == "uniform":
        state = solve_cell(lattice, grid, 0.02).state
    else:
        state = initial_state(lattice, grid, "perturbed", 3, 0.05)
    op = LinearizedOperator(state, 0.02)
    group = linop.fiber_symmetries(op)
    pure_mirrors = {
        a for g in group if g.source == (0, 1, 2) and not g.conj and sum(g.signs) == 1 for a in np.flatnonzero(g.flip)
    }
    assert len(pure_mirrors) == mirrors
    del factored_dims[:]
    report = stability_scan(state, 0.02, refine=False, operator=op)
    assert len(factored_dims) == factored
    for record, vec in zip(report.fiber_records, report.fiber_vectors):
        f = FiberOperator(op, record.xi, wrap=False)
        val, _ = f.min_eigenpair()
        assert record.n_negative == f.n_negative == grid.total_points
        assert abs(record.eigenvalue - val) <= 1e-13 * abs(val)
        assert np.linalg.norm(f.apply(vec) - record.eigenvalue * vec) <= f._residual_bound()


def test_only_factored_fibers_build_the_kinetic_matrix(cell_solution, factored_dims, monkeypatch):
    # a mapped fiber checks its pair with H applied by FFT and builds no
    # N x N circulant; that apply is the dense matrix's, real at Gamma
    built = []
    init = FiberOperator.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(FiberOperator, "__init__", recording)
    stability_scan(cell_solution.state, cell_solution.h_value, refine=False)
    assert len(built) == 9 and len(factored_dims) == 2
    assert sum("kinetic" in vars(f) for f in built) == 2
    rng = np.random.default_rng(4)
    for f in (built[0], built[-1]):
        x = rng.standard_normal(3 * f.n_points)
        x = x + 1j * rng.standard_normal(x.shape) if np.any(f.xi) else x
        Hx = f.apply(x)
        assert np.isrealobj(Hx) == np.isrealobj(x)
        assert np.max(np.abs(Hx - f.matrix @ x)) <= 1e-12 * np.max(np.abs(Hx))


@pytest.mark.parametrize("t1", [1e-7, 1e-3, 1.0 - 1e-7], ids=["1e-7-b1", "1e-3-b1", "b1-minus-1e-7-b1"])
def test_near_null_coulomb_mode_is_bordered(cell_solution, factored_dims, t1):
    # a Coulomb mode with |k + xi|^2 below COULOMB_ELIMINATION_RTOL of the
    # largest (k = 0 near Gamma, k = -b_1 near the unwrapped b_1) is not
    # eliminated but kept in K as one bordered row with its own Coulomb
    # entry; the inertia and the pair are the full spectrum's
    f = _workhorse_fiber(cell_solution.state, (t1, 0.0, 0.0), wrap=False)
    val, vec = f.min_eigenpair()
    N = f.n_points
    assert factored_dims == [2 * N + 1]
    vals = np.linalg.eigvalsh(f.matrix)
    assert f.n_negative == np.count_nonzero(vals < 0) == N
    assert val == pytest.approx(vals[int(np.argmin(np.abs(vals)))], rel=1e-12)
    assert np.linalg.norm(f.matrix @ vec - val * vec) <= 1e-12 * np.max(np.abs(f.matrix))


def test_min_eigenpair_start_is_seeded_and_spans_every_mode(monkeypatch):
    # on a uniform state every Fourier mode spans an invariant subspace of the
    # fiber, so a start inside a few modes (a constant one is k = 0 alone)
    # leaves them only through rounding; the start is a seeded random complex
    # vector with weight on every mode of every channel, and a warm start
    # keeps that vector at FIBER_START_BLEND of its norm
    starts = []
    eigsh = linop.eigsh

    def recording(*args, **kwargs):
        starts.append(kwargs["v0"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(linop, "eigsh", recording)
    f = _jellium_fiber(0.2)
    first, second = f.min_eigenpair(), f.min_eigenpair()
    assert np.array_equal(starts[0], starts[1])
    assert first[0] == second[0] and np.array_equal(first[1], second[1])

    def modes(v):
        return np.abs(np.fft.fftn(v.reshape((3,) + f.grid.shape), axes=(1, 2, 3)))

    assert np.min(modes(starts[0])) > 1e-3 * np.max(modes(starts[0]))
    warm = 2.0 * first[1]  # one 3 x 3 block of the k = 0 mode only
    assert np.count_nonzero(modes(warm) > 1e-12) <= 3
    again = f.min_eigenpair(warm)
    assert again[0] == pytest.approx(first[0], rel=1e-12)
    blend = linop.FIBER_START_BLEND * np.linalg.norm(warm) / np.linalg.norm(starts[0])
    assert np.allclose(starts[2], warm + blend * starts[0], rtol=0.0, atol=1e-15)
    assert np.min(modes(starts[2])) > 1e-3 * blend * np.max(modes(starts[0]))


@pytest.mark.parametrize("competing", [1.0243, -1.4599])
def test_warm_start_in_a_competing_subspace_finds_the_nearest_eigenvalue(competing):
    # on the uniform state each plane wave spans an invariant subspace of the
    # fiber (a 3 x 3 block); a start that is an exact eigenvector of another
    # block's eigenvalue must not lock the solve onto that eigenvalue
    f = _jellium_fiber(0.8, (0.3, -0.2, 0.1))
    N = f.n_points
    nearest = min(np.linalg.eigvalsh(f.matrix), key=abs)
    assert nearest == pytest.approx(-0.73367, abs=1e-5)
    q = f.symbol.ravel()
    blocks = np.zeros((N, 3, 3))
    for s in range(2):
        blocks[:, s, s] = q + f.F[s]
        blocks[:, s, 2] = blocks[:, 2, s] = f.nu[s]
    blocks[:, 2, 2] = -q / linop.EIGHT_PI
    lam, Q = np.linalg.eigh(blocks)
    j, i = np.unravel_index(np.argmin(np.abs(lam - competing)), lam.shape)
    assert lam[j, i] == pytest.approx(competing, abs=1e-4)
    wave = np.sqrt(N) * np.fft.ifftn(np.eye(N)[j].reshape(f.grid.shape)).ravel()
    start = np.concatenate([c * wave for c in Q[j, :, i]])
    assert np.linalg.norm(f.apply(start) - lam[j, i] * start) < 1e-12
    assert f.min_eigenpair(start)[0] == pytest.approx(nearest, rel=1e-12)


def test_min_eigenpair_singular_factorization_raises(monkeypatch):
    # the factorization reports an exactly zero pivot (info > 0): no solve
    # with the factors exists, and the error names the fiber
    bunch_kaufman = linop._bunch_kaufman

    def singular(a):
        factors, ipiv, _, trs = bunch_kaufman(a)
        return factors, ipiv, 1, trs

    monkeypatch.setattr(linop, "_bunch_kaufman", singular)
    f = _jellium_fiber(0.2, (0.3, -0.2, 0.1))
    with pytest.raises(EigensolverError, match="exactly singular") as err:
        f.min_eigenpair()
    assert str(tuple(f.xi)) in str(err.value)
    assert f.n_negative is None


def test_min_eigenpair_arpack_failure_raises(monkeypatch):
    # one Lanczos restart cannot converge: the error carries the residual of
    # the last inverse iterate
    monkeypatch.setattr(linop, "eigsh", functools.partial(linop.eigsh, maxiter=1))
    with pytest.raises(EigensolverError, match="shift-invert Lanczos on the fiber") as err:
        _jellium_fiber(0.5, (0.3, -0.2, 0.1)).min_eigenpair()
    history = err.value.residual_history
    assert len(history) == 1 and np.isfinite(history[0]) and history[0] > 0.0


def test_inertia_crossing_found_between_samples():
    params = jellium.JelliumParams(0.2)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    xis = monkhorst_pack(lat, (3, 3, 3))
    report = stability_scan(jellium.jellium_state(params, grid), 0.0, xi_grid=xis, refine=True)
    assert report.classification == "sdw_unstable"
    assert report.refined_gap < 1e-10
    nearest = min(np.linalg.norm(xi) for xi in xis if np.linalg.norm(xi) > 0)
    assert 0.0 < np.linalg.norm(report.refined_xi) < nearest
    counts = {r.n_negative for r in report.fiber_records}
    assert counts == {grid.total_points, grid.total_points + 1}


def test_unrefined_scan_classifies_by_inertia():
    # every sampled gap clears the threshold (minimum 0.0441), but the Gamma
    # fiber has N+1 negative eigenvalues: the state is not stable
    params = jellium.JelliumParams(0.2)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    xis = monkhorst_pack(lat, (3, 3, 3))
    report = stability_scan(jellium.jellium_state(params, grid), 0.0, xi_grid=xis, refine=False)
    assert report.global_gap == pytest.approx(0.0441, abs=1e-4)
    assert report.global_gap > report.threshold
    assert {r.n_negative for r in report.fiber_records} == {grid.total_points, grid.total_points + 1}
    assert report.classification == "sdw_unstable"


def test_refined_anchor_scan_is_cheap_and_converged(cell_solution, monkeypatch):
    # workhorse anchor: zone-grid minimum 0.5977276017707 on the body
    # diagonals; the minimum 0.592052552178 lies on the b_1 axis at
    # t = (0.3962, 0, 0), while BFGS from a diagonal sample stops on the flat
    # valley |t| ~ 0.396 at 0.5920545851544 (3.4e-6 above it)
    calls = []
    for name in ("min_eigenpair", "eigenvalues"):
        method = getattr(FiberOperator, name)

        def counted(*args, method=method):
            calls.append(1)
            return method(*args)

        monkeypatch.setattr(FiberOperator, name, counted)
    report = stability_scan(cell_solution.state, 0.0, refine=True)
    # one corner and Gamma, two axis probes (the b_3 probe is the b_2
    # probe's image under the swap of the equal axes) and the BFGS steps,
    # whose first point is the best probe, already solved
    assert len(calls) <= 12
    assert report.refined_gap <= 0.5977276017707
    assert report.refined_gap == pytest.approx(0.592052552178043, rel=1e-9)
    assert report.classification == "stable"
