import functools

import numpy as np
import pytest

from tfdw import jellium, linop
from tfdw.errors import EigensolverError, StructuralError
from tfdw.grids import (
    Grid,
    GridSpec,
    LatticeSpec,
    ScalarField,
    State,
    random_smooth_field,
)
from tfdw.linop import (
    FiberOperator,
    LinearizedOperator,
    channel_characters,
    commensurate_xis,
    fiber,
    monkhorst_pack,
    spectral_gap,
    stability_scan,
    wrap_to_zone,
)
from tfdw.residual import residual_system
from tfdw.studies import extended_as_cell

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
    assert np.max(np.abs(H @ x - op.matvec(x))) < 1e-10


def test_fiber_at_zero_contains_sdw_coefficient():
    params, grid, op = jellium_op(0.9)
    vals = fiber(op, (0.0, 0.0, 0.0)).eigenvalues()
    assert np.min(np.abs(vals - params.sdw_coefficient)) < 1e-12


def test_fiber_zone_wrap_equivalence():
    _, grid, op = jellium_op(0.8)
    xi = np.array([0.3, -0.7, 0.2])
    G = grid.lattice.reciprocal_vectors[0] + grid.lattice.reciprocal_vectors[2]
    a = np.sort(fiber(op, xi).eigenvalues())
    b = np.sort(fiber(op, xi + G).eigenvalues())
    assert np.max(np.abs(a - b)) < 1e-9


def test_fiber_requires_cell_state():
    params = jellium.JelliumParams(0.5)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4), (2, 1, 1)))
    op = LinearizedOperator(jellium.jellium_state(params, grid), 0.0)
    with pytest.raises(StructuralError):
        fiber(op, (0, 0, 0))


def test_spectral_gap_against_analytic_minimum():
    params, grid, op = jellium_op(1.0)
    xis = monkhorst_pack(grid.lattice, (3, 3, 3))
    numeric = min(fiber(op, xi).gap() for xi in xis)
    analytic = np.inf
    for xi in xis:
        for k1, k2, k3 in zip(*(k.ravel() for k in grid.k_cart)):
            q = (k1 + xi[0], k2 + xi[1], k3 + xi[2])
            analytic = min(analytic, min(abs(v) for v in jellium.eigenvalues(params, q)))
    assert abs(numeric - analytic) < 1e-8


def test_spectral_gap_shifted_operator():
    _, grid, op = jellium_op(0.5)
    f = fiber(op, (0.1, 0.0, 0.0))
    base = np.linalg.eigvalsh(f.matrix)
    s = 10.0 + abs(base.min())
    shifted = f.matrix + s * np.eye(f.matrix.shape[0])
    gap_shifted = spectral_gap(np.asarray(shifted))
    assert gap_shifted == pytest.approx(base.min() + s, rel=1e-12)


def test_gap_vanishes_at_threshold():
    params, grid, op = jellium_op(jellium.sdw_threshold())
    vals = fiber(op, (0.0, 0.0, 0.0)).eigenvalues()
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


def test_stability_report_serialization():
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
    lines = report.fibers_csv().strip().split("\n")
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
        union.extend(fiber(cell_op, xi, wrap=False).eigenvalues())
    assert np.max(np.abs(sup_spectrum - np.sort(union))) < 1e-8


def test_spectral_gap_iterative_matches_dense():
    params = jellium.JelliumParams(0.6)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4), (2, 1, 1)))
    op = LinearizedOperator(jellium.jellium_state(params, grid), 0.0)
    dense_gap = spectral_gap(op)  # within the dense cutoff
    iter_gap = spectral_gap(op, tol=1e-9, seed=0, dense_cutoff=10)
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
    monkeypatch.setattr(linop, "eigsh", functools.partial(linop.eigsh, ncv=3))
    with pytest.raises(EigensolverError) as err:
        spectral_gap(_jellium_supercell_op(), maxiter=1, dense_cutoff=10)
    history = err.value.residual_history
    assert len(history) >= 1
    assert all(np.isfinite(history)) and max(history) < 1e-9
    assert "did not reach tolerance" in str(err.value)


def test_spectral_gap_inner_solve_stall(monkeypatch):
    minres = linop.minres

    def three_steps(*args, **kwargs):
        return minres(*args, **{**kwargs, "maxiter": 3})

    monkeypatch.setattr(linop, "minres", three_steps)
    with pytest.raises(EigensolverError) as err:
        spectral_gap(_jellium_supercell_op(), dense_cutoff=10)
    assert "inner MINRES solve" in str(err.value)
    assert len(err.value.residual_history) == 1
    assert err.value.residual_history[0] > 1e-3


def test_stability_scan_threaded_matches_serial():
    params = jellium.JelliumParams(0.5)
    lat = jellium.jellium_lattice(params)
    grid = Grid(lat, GridSpec((4, 4, 4)))
    state = jellium.jellium_state(params, grid)
    xis = monkhorst_pack(lat, (2, 2, 2))
    serial = stability_scan(state, 0.0, xi_grid=xis, refine=False, threads=1)
    threaded = stability_scan(state, 0.0, xi_grid=xis, refine=False, threads=4)
    assert serial.global_gap == threaded.global_gap
    assert [r.gap for r in serial.fiber_records] == [r.gap for r in threaded.fiber_records]


# -- fiber kernels: LDL^H inertia, shift-invert pair, Hellmann-Feynman gradient --


def sheared_state(rng):
    lat = LatticeSpec(
        [[1.0, 0.0, 0.0], [0.3, 0.9, 0.0], [0.1, -0.2, 1.1]], 2.0, [((1, 0, 0), 0.2)]
    )
    grid = Grid(lat, GridSpec((4, 4, 4)))
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
    fd = np.array(
        [
            (
                FiberOperator(op, xi + step * e).eigenvalue(index)
                - FiberOperator(op, xi - step * e).eigenvalue(index)
            )
            / (2 * step)
            for e in np.eye(3)
        ]
    )
    assert np.max(np.abs(grad)) > 0.1  # a nontrivial slope
    assert np.max(np.abs(grad - fd)) <= 1e-6


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
    """Dimensions of the matrices handed to zhetrf, in call order."""
    dims = []
    zhetrf = linop.zhetrf

    def recording(a, **kwargs):
        dims.append(a.shape[0])
        return zhetrf(a, **kwargs)

    monkeypatch.setattr(linop, "zhetrf", recording)
    return dims


def _workhorse_fiber(state, frac, wrap=True):
    B = state.grid.lattice.reciprocal_vectors
    return FiberOperator(LinearizedOperator(state, 0.0), B.T @ np.asarray(frac, dtype=float), wrap)


def _supercell_fiber(state):
    _, _, big = extended_as_cell(state.grid.lattice, state.grid.shape, state, 2, 0)
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


def test_certified_scan_never_assembles_the_dense_fiber(cell_solution, factored_dims, monkeypatch):
    # the stable workhorse scan, refinement included, factors only 2N (+1 at
    # Gamma) blocks and never builds the 3N x 3N fiber
    def dense(self):
        raise AssertionError("dense 3N x 3N fiber assembled")

    monkeypatch.setattr(FiberOperator, "matrix", property(dense))
    report = stability_scan(cell_solution.state, 0.0, refine=True)
    N = cell_solution.grid.total_points
    assert report.classification == "stable"
    assert factored_dims.count(2 * N + 1) == 1 and set(factored_dims) == {2 * N, 2 * N + 1}
    assert len(factored_dims) > len(report.fiber_records)  # the refinement is covered


def test_near_null_coulomb_mode_uses_dense_fiber(cell_solution):
    # |k + xi|^2 of 1e-14 relative cannot be eliminated in floating point:
    # the fiber falls back to its full spectrum, with the right inertia
    f = _workhorse_fiber(cell_solution.state, (1e-7, 0.0, 0.0), wrap=False)
    assert f.factor() is None
    val, vec = f.min_eigenpair()
    vals = np.linalg.eigvalsh(f.matrix)
    assert f.n_negative == np.count_nonzero(vals < 0) == f.n_points
    assert val == pytest.approx(vals[int(np.argmin(np.abs(vals)))], rel=1e-12)
    assert np.linalg.norm(f.matrix @ vec - val * vec) <= 1e-12 * np.max(np.abs(f.matrix))


def test_min_eigenpair_start_is_seeded_and_spans_every_mode(monkeypatch):
    # on a uniform state every Fourier mode spans an invariant subspace of the
    # fiber, so a start inside a few modes (a constant one is k = 0 alone)
    # leaves them only through rounding; the start is a seeded random complex
    # vector with weight on every mode of every channel
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
    modes = np.abs(np.fft.fftn(starts[0].reshape((3,) + f.grid.shape), axes=(1, 2, 3)))
    assert np.min(modes) > 1e-3 * np.max(modes)


def test_min_eigenpair_singular_factorization_uses_full_spectrum(monkeypatch):
    # zhetrf reports an exactly zero pivot (info > 0): no solve with the
    # factors exists, so the pair and the count come from the full spectrum
    zhetrf = linop.zhetrf

    def singular(*args, **kwargs):
        factors, ipiv, _ = zhetrf(*args, **kwargs)
        return factors, ipiv, 1

    monkeypatch.setattr(linop, "zhetrf", singular)
    f = _jellium_fiber(0.2)
    val, vec = f.min_eigenpair()
    vals = np.linalg.eigh(f.matrix)[0]
    assert f.n_negative == np.count_nonzero(vals < 0) == f.n_points + 1
    assert val == vals[int(np.argmin(np.abs(vals)))]
    assert np.linalg.norm(f.matrix @ vec - val * vec) <= 1e-12 * np.max(np.abs(f.matrix))


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
    for name in ("min_eigenpair", "eigenvalues", "eigenvalue"):
        method = getattr(FiberOperator, name)

        def counted(*args, method=method):
            calls.append(1)
            return method(*args)

        monkeypatch.setattr(FiberOperator, name, counted)
    report = stability_scan(cell_solution.state, 0.0, refine=True)
    assert len(calls) <= 25
    assert report.refined_gap <= 0.5977276017707
    assert report.refined_gap == pytest.approx(0.592052552178043, rel=1e-9)
    assert report.classification == "stable"
