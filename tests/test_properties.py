"""Property tests over random sheared lattices and grids (hypothesis)."""

import itertools
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_grids import KERNELS, _reference_kernels
from tfdw import fieldio, jellium, linop
from tfdw.energy import energy_supercell
from tfdw.grids import Grid, GridSpec, LatticeSpec, Mode, ScalarField, State, random_smooth_field
from tfdw.linop import FiberOperator, LinearizedOperator, monkhorst_pack, stability_scan
from tfdw.residual import normalize_state, residual_system, variational_pairing

# few examples and no deadline keep tier-1 near its time; derandomized, so
# every run draws the same examples
PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@st.composite
def sheared_grids(draw, max_supercell=3):
    """A lower-triangular cell (positive diagonal, sheared off it), even
    resolutions 4..8 and supercell factors 1..max_supercell per axis."""
    diag = draw(st.lists(st.floats(0.8, 1.25), min_size=3, max_size=3))
    shear = draw(st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3))
    cell = np.diag(diag)
    cell[1, 0], cell[2, 0], cell[2, 1] = shear
    resolution = draw(st.tuples(*[st.sampled_from((4, 6, 8))] * 3))
    supercell = draw(st.tuples(*[st.integers(1, max_supercell)] * 3))
    return Grid(LatticeSpec(cell, 2.0), GridSpec(resolution, supercell))


@PROPERTY_SETTINGS
@given(sheared_grids(), st.integers(0, 2**32 - 1))
def test_kernels_match_per_field_numpy_fft_on_random_grids(g, seed):
    # white noise fills every mode, the Nyquist planes included, where an
    # unfolded symbol on the half spectrum would differ
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, 3) + g.shape)
    x -= np.mean(x, axis=(1, 2, 3), keepdims=True)  # poisson needs mean zero
    kernels = _reference_kernels(g)
    for kernel in KERNELS:
        call, reference = kernels[kernel]
        expected = np.array([reference(x[i], y[i]) for i in range(3)])
        tol = 1e-13 * np.max(np.abs(expected))
        assert np.max(np.abs(call(x, y) - expected)) <= tol, kernel


@PROPERTY_SETTINGS
@given(sheared_grids(), st.integers(0, 2**32 - 1))
def test_folded_preconditioner_block_is_spd_on_random_grids(g, seed):
    rng = np.random.default_rng(seed)
    nu_plus, nu_minus = 1.0 + 0.2 * rng.standard_normal((2,) + g.shape)
    v = 0.5 * rng.standard_normal(g.shape)
    v -= np.mean(v)
    state = State(ScalarField(g, nu_plus), ScalarField(g, nu_minus), ScalarField(g, v), -0.3)
    symbol = LinearizedOperator(state, 0.05).preconditioner_symbol()
    assert symbol.shape == (3, 3) + g.half_shape
    assert np.isrealobj(symbol)
    blocks = np.moveaxis(symbol.reshape(3, 3, -1), -1, 0)
    assert np.max(np.abs(blocks - np.swapaxes(blocks, 1, 2))) <= 1e-14 * np.max(np.abs(blocks))
    lam = np.linalg.eigvalsh(blocks)
    assert np.min(lam) > 0.0
    assert np.max(lam) <= (1.0 + 1e-12) / linop.ABS_SYMBOL_FLOOR


_SHEARED_12x4x4 = Grid(
    LatticeSpec([[1.0, 0.0, 0.0], [0.3, 0.9, 0.0], [0.1, -0.2, 1.1]], 2.0), GridSpec((6, 4, 4), (2, 1, 1))
)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(sheared_grids(), st.integers(0, 2**32 - 1))
@example(_SHEARED_12x4x4, 0)  # a length with a factor 3 leaves roundoff on self-conjugate bins
def test_half_spectrum_coordinates_are_isometric(g, seed):
    # white noise fills every bin, the self-conjugate ones and the Nyquist
    # planes of a sheared lattice included
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal((2, 3) + g.shape)
    yu, yv = g.to_y(u), g.to_y(v)
    assert yu.shape == (3,) + g.half_shape
    flat_u, flat_v = yu.view(float).ravel(), yv.view(float).ravel()
    assert abs(np.linalg.norm(flat_u) - np.linalg.norm(u)) <= 1e-13 * np.linalg.norm(u)
    assert np.max(np.abs(g.from_y(yu) - u)) <= 1e-13 * np.max(np.abs(u))
    corners = (Ellipsis,) + np.ix_(*([0, M // 2] for M in g.shape))
    assert np.all(yu.imag[corners] == 0.0)
    # the operator on the coordinates pairs as L does on grid values
    nu_plus, nu_minus = 1.0 + 0.2 * rng.standard_normal((2,) + g.shape)
    w = 0.5 * rng.standard_normal(g.shape)
    state = State(ScalarField(g, nu_plus), ScalarField(g, nu_minus), ScalarField(g, w - np.mean(w)), -0.3)
    op = LinearizedOperator(state, 0.05)
    A, _ = op.half_spectrum_pair()
    Lv = op.apply(v)
    assert abs(flat_u @ (A @ flat_v) - np.sum(u * Lv)) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(Lv)


_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@PROPERTY_SETTINGS
@given(
    sheared_grids(max_supercell=2),
    st.floats(0.5, 4.0),
    st.tuples(st.tuples(st.integers(1, 2), st.integers(-2, 2), st.integers(-2, 2)), _FINITE, _FINITE),
    _FINITE,
    st.integers(0, 2**32 - 1),
)
def test_state_files_round_trip_bitwise(g, Z, mode, gauge, seed):
    # the lattice (its background mode included), the grid, the three
    # fields to the last bit (a signed zero, a subnormal and exponents
    # across the double range included) and the gauge all come back from
    # write_state/read_state
    g = Grid(LatticeSpec(g.lattice.cell_vectors, Z, [Mode(*mode)]), g.spec)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((3,) + g.shape) * 10.0 ** rng.integers(-300, 300, (3,) + g.shape)
    values.flat[:2] = -0.0, 5e-324
    state = State(*(ScalarField(g, v) for v in values), gauge)
    with tempfile.TemporaryDirectory() as directory:
        fieldio.write_state(directory, "s", state)
        back, _ = fieldio.read_state(directory, "s")
    assert back.grid == g
    assert back.gauge == gauge
    for field, expected in zip((back.nu_plus, back.nu_minus, back.V), values):
        assert field.values.tobytes() == expected.tobytes()


@st.composite
def sheared_cells(draw):
    """A sheared cell as in ``sheared_grids``, one cell, resolutions 4 or 6."""
    diag = draw(st.lists(st.floats(0.8, 1.25), min_size=3, max_size=3))
    shear = draw(st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3))
    cell = np.diag(diag)
    cell[1, 0], cell[2, 0], cell[2, 1] = shear
    resolution = draw(st.tuples(*[st.sampled_from((4, 6))] * 3))
    return Grid(LatticeSpec(cell, 2.0), GridSpec(resolution))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    sheared_cells(),
    st.tuples(*[st.floats(0.02, 0.98)] * 3),
    st.sampled_from(("random", "jellium-0.2")),
    st.integers(0, 2**32 - 1),
)
def test_time_reversed_fiber_equals_its_direct_factorization(g, t, kind, seed):
    # a scan over xi, -xi and G - xi (G = b_1 + b_2 + b_3) factors xi and
    # -xi and maps G - xi from xi; every record must be the one a direct
    # factorization at its own xi gives: the same inertia, the same
    # eigenvalue to 1e-13 and an eigenvector within the residual bound.
    # The unstable uniform state (nu0 = 0.2, one extra negative eigenvalue
    # near Gamma) has a degenerate spectrum
    if kind == "random":
        rng = np.random.default_rng(seed)
        nu_plus, nu_minus = 1.0 + 0.2 * rng.standard_normal((2,) + g.shape)
        v = 0.5 * rng.standard_normal(g.shape)
        state = State(ScalarField(g, nu_plus), ScalarField(g, nu_minus), ScalarField(g, v - np.mean(v)), -0.3)
    else:
        state = jellium.jellium_state(jellium.JelliumParams(0.2), g)
    B = g.lattice.reciprocal_vectors
    t = np.asarray(t)
    xis = [B.T @ t, B.T @ -t, B.T @ (1.0 - t)]
    factored = []
    bunch_kaufman = linop._bunch_kaufman

    def counting(K):
        factored.append(K.dtype)
        return bunch_kaufman(K)

    linop._bunch_kaufman = counting
    try:
        report = stability_scan(state, 0.0, xi_grid=xis, refine=False)
    finally:
        linop._bunch_kaufman = bunch_kaufman
    assert len(factored) == 2  # G - xi is not factored
    op = LinearizedOperator(state, 0.0)
    for xi, record, vec in zip(xis, report.fiber_records, report.fiber_vectors):
        f = FiberOperator(op, xi, wrap=False)
        val, _ = f.min_eigenpair()
        assert record.n_negative == f.n_negative
        assert abs(record.eigenvalue - val) <= 1e-13 * abs(val)
        assert np.linalg.norm(f.apply(vec) - record.eigenvalue * vec) <= f._residual_bound()


def _transformed(u, source, signs):
    """u(R x) on the grid of the last three axes of ``u``: (R u)[i] = u[j]
    with j_{source[b]} = signs[b] i_b mod n, by explicit indices."""
    i = np.indices(u.shape[-3:])
    j = [None] * 3
    for b in range(3):
        j[source[b]] = (signs[b] * i[b]) % u.shape[-3 + source[b]]
    return u[(Ellipsis, *j)]


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.floats(0.8, 1.25), min_size=3, max_size=3),
    st.tuples(*[st.sampled_from((0.0, 0.3))] * 3),
    st.tuples(*[st.sampled_from((4, 6))] * 3),
    st.sets(st.integers(0, 2)),
    st.integers(0, 2**32 - 1),
)
@example([1.0, 1.1, 0.9], (0.0, 0.0, 0.0), (4, 4, 6), {0, 1, 2}, 0)  # one orbit of 8 corners
def test_symmetry_mapped_fibers_equal_their_direct_factorizations(diag, shear, resolution, even, seed):
    # a cell whose shear couples some axes, and a random state made even
    # in the axes ``even`` (x_a -> -x_a): a mirror is a symmetry only where
    # the cell vectors of the axes it flips are orthogonal to the others
    # and the state is even, and every such mirror is admitted.  The scan
    # over the 2 x 2 x 2 corners factors Gamma and one corner per orbit of
    # the group; every record, mapped or not, is the one a direct
    # factorization at its own xi gives: the same inertia, the same
    # eigenvalue to 1e-13 and an eigenvector within the residual bound
    cell = np.diag(diag)
    cell[1, 0], cell[2, 0], cell[2, 1] = shear
    g = Grid(LatticeSpec(cell, 2.0), GridSpec(resolution))
    rng = np.random.default_rng(seed)
    fields = rng.standard_normal((3,) + g.shape)
    for a in even:
        signs = tuple(-1 if b == a else 1 for b in range(3))
        fields = 0.5 * (fields + _transformed(fields, (0, 1, 2), signs))
    nu_plus, nu_minus = 1.0 + 0.2 * fields[:2]
    v = 0.5 * (fields[2] - np.mean(fields[2]))
    state = State(ScalarField(g, nu_plus), ScalarField(g, nu_minus), ScalarField(g, v), -0.3)
    op = LinearizedOperator(state, 0.05)
    coeffs = np.stack([op.F_plus, op.F_minus, op.nu_plus, op.nu_minus])
    gram = cell @ cell.T

    group = linop.fiber_symmetries(op)
    for e in group:
        Q = np.zeros((3, 3))
        Q[range(3), e.source] = e.signs
        assert np.allclose(Q @ gram @ Q.T, gram, rtol=0.0, atol=1e-12)
        moved = _transformed(coeffs, e.source, e.signs)
        assert np.max(np.abs(moved - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))
    admitted = {frozenset(np.flatnonzero(np.asarray(e.signs) < 0)) for e in group if e.source == (0, 1, 2)}
    for mask in itertools.product((False, True), repeat=3):
        flipped = frozenset(np.flatnonzero(mask))
        orthogonal = all(abs(gram[a, b]) == 0.0 for a in flipped for b in set(range(3)) - flipped)
        assert (flipped in admitted) == (orthogonal and flipped <= even)

    # orbits of the corners under the group, from its action on fractions
    corners = [tuple(c) for c in itertools.product((0.25, 0.75), repeat=3)]
    orbits = {}
    for c in corners:
        images = set()
        for e in group:
            flip = (np.asarray(e.signs) < 0) != e.conj
            images.add(tuple(np.where(flip, 1.0 - np.asarray(c)[list(e.source)], np.asarray(c)[list(e.source)])))
        orbits.setdefault(min(images), c)
    factored = []
    bunch_kaufman = linop._bunch_kaufman

    def counting(K):
        factored.append(K.dtype)
        return bunch_kaufman(K)

    linop._bunch_kaufman = counting
    try:
        report = stability_scan(state, 0.05, refine=False, operator=op)
    finally:
        linop._bunch_kaufman = bunch_kaufman
    assert len(factored) == 1 + len(orbits)
    for record, vec in zip(report.fiber_records, report.fiber_vectors, strict=True):
        f = FiberOperator(op, record.xi, wrap=False)
        val, _ = f.min_eigenpair()
        assert record.n_negative == f.n_negative
        assert abs(record.eigenvalue - val) <= 1e-13 * abs(val)
        assert np.linalg.norm(f.apply(vec) - record.eigenvalue * vec) <= f._residual_bound()
    assert [r.xi for r in report.fiber_records] == [tuple(xi) for xi in monkhorst_pack(g.lattice, (2, 2, 2))]


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(sheared_grids(max_supercell=1), st.integers(0, 2**32 - 1))
def test_energy_residual_and_linearization_agree_on_sheared_cells(g, seed):
    # on a sheared cell under a constant field, central differences match
    # at second order: those of the energy along a direction tangent to the
    # normalization match the residual pairing, and those of the residual
    # system match the linearized operator (a state with a nonzero gauge).
    # Halving the step must cut each relative error about fourfold
    h = 0.05
    rng = np.random.default_rng(seed)
    lat = g.lattice
    base = np.sqrt(lat.Z / (2.0 * lat.volume))
    nup, num = (base * (1.0 + 0.2 * random_smooth_field(g, rng, 1.0, 1)) for _ in range(2))
    state = normalize_state(State(ScalarField(g, nup), ScalarField(g, num), ScalarField(g, 0.0 * nup)))
    nup, num = state.nu_plus.values, state.nu_minus.values
    rho_b = lat.rho_b_values(g)
    v = g.poisson(4.0 * np.pi * (state.rho_values() - rho_b), scale=4.0 * np.pi * g.l2n(rho_b))
    state = State(state.nu_plus, state.nu_minus, ScalarField(g, v), 0.3)
    d = np.array([random_smooth_field(g, rng, 1.0, 1) for _ in range(3)])
    mu = (g.inner(d[0], nup) + g.inner(d[1], num)) / (g.inner(nup, nup) + g.inner(num, num))
    d_plus, d_minus = d[0] - mu * nup, d[1] - mu * num
    pairing = variational_pairing(state, d_plus, d_minus, h)
    Ld = LinearizedOperator(state, h).apply(d)

    def energy(t):
        moved = State(ScalarField(g, nup + t * d_plus), ScalarField(g, num + t * d_minus), state.V)
        return energy_supercell(normalize_state(moved), h).total

    def system(t):
        return residual_system(State.from_stack(g, state.stacked() + t * d), h)

    energy_err, system_err = [], []
    for t in (1e-2, 5e-3):
        energy_err.append(abs((energy(t) - energy(-t)) / (2 * t) - pairing) / abs(pairing))
        system_err.append(np.linalg.norm((system(t) - system(-t)) / (2 * t) - Ld) / np.linalg.norm(Ld))
    for err in (energy_err, system_err):
        assert err[0] <= 1e-3
        assert err[1] <= 0.3 * err[0]
