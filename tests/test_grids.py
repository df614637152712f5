import numpy as np
import pytest

from tfdw.errors import GridMismatchError, SolvabilityError, StructuralError
from tfdw.grids import (
    Grid,
    GridSpec,
    HField,
    LatticeSpec,
    ScalarField,
    State,
    constant_field,
    multi_indices,
    random_smooth_field,
)

TWO_PI = 2.0 * np.pi


def unit_cube(Z=1.0, modes=()):
    return LatticeSpec.cubic(1.0, Z, modes)


def make_grid(resolution=(4, 4, 4), supercell=(1, 1, 1), lattice=None):
    return Grid(lattice or unit_cube(), GridSpec(resolution, supercell))


def cos_mode(grid, m=(1, 0, 0), supercell=False):
    frac = grid.supercell_fraction if supercell else grid.cell_fraction
    return np.cos(TWO_PI * sum(c * f for c, f in zip(m, frac)))


# -- spec validation ---------------------------------------------------------


def test_gridspec_invariants():
    with pytest.raises(StructuralError):
        GridSpec((3, 4, 4))      # below minimum
    with pytest.raises(StructuralError):
        GridSpec((6, 5, 4))      # odd
    with pytest.raises(StructuralError):
        GridSpec((4, 4, 4), (0, 1, 1))
    spec = GridSpec((8, 4, 4), (2, 3, 1))
    assert spec.total_points == 16 * 12 * 4


def test_lattice_invariants():
    with pytest.raises(StructuralError):
        LatticeSpec(-np.eye(3), 1.0)
    with pytest.raises(StructuralError):
        LatticeSpec.cubic(1.0, 1.0, [((0, 0, 0), 0.1)])  # mean mode forbidden
    lat = unit_cube(Z=2.0, modes=[((1, 0, 0), 0.3)])
    g = make_grid((8, 4, 4), lattice=lat)
    rho_b = lat.rho_b_values(g)
    # cell mean equals Z / |Gamma| by construction
    assert abs(np.mean(rho_b) - 2.0) < 1e-14


def test_grid_background_is_the_lattice_background_computed_once():
    lat = unit_cube(Z=2.0, modes=[((1, 0, 0), 0.3), ((0, 1, 1), 0.1, 0.5)])
    g = make_grid((8, 4, 4), (2, 1, 1), lattice=lat)
    assert g.rho_b.tobytes() == lat.rho_b_values(g).tobytes()
    assert g.rho_b is g.rho_b
    assert not g.rho_b.flags.writeable
    with pytest.raises(ValueError):
        g.rho_b[0, 0, 0] = 0.0


# -- transform ---------------------------------------------------------------


def test_transform_constant_field():
    g = make_grid()
    coeffs = g.fft(np.ones(g.shape))
    expected = (TWO_PI) ** (-1.5) * g.vol_supercell
    assert abs(coeffs.flat[0] - expected) < 1e-14
    off = coeffs.copy()
    off.flat[0] = 0.0
    assert np.max(np.abs(off)) < 1e-14


def test_transform_single_mode():
    g = make_grid((8, 4, 4))
    coeffs = g.fft(cos_mode(g))
    # nonzero only at k = +-2pi e1, each (2pi)^{-3/2}/2
    nz = np.abs(coeffs) > 1e-13
    assert nz.sum() == 2
    assert abs(coeffs[1, 0, 0] - (TWO_PI) ** (-1.5) / 2) < 1e-14
    assert abs(coeffs[-1, 0, 0] - (TWO_PI) ** (-1.5) / 2) < 1e-14


def test_transform_roundtrip(rng):
    g = make_grid((8, 6, 4), (2, 1, 1))
    vals = random_smooth_field(g, rng, 1.0, 2, supercell_modes=True)
    back = g.ifft(g.fft(vals))
    assert np.max(np.abs(back - vals)) <= 1e-13 * max(1.0, np.max(np.abs(vals)))


# -- norms --------------------------------------------------------------------


def test_l2n_constant_is_modulus():
    for supercell in [(1, 1, 1), (2, 1, 1), (2, 3, 1)]:
        g = make_grid((4, 4, 4), supercell)
        assert abs(g.l2n(constant_field(g, -2.5).values) - 2.5) < 1e-14


def test_l2n_cosine_independent_of_supercell():
    for supercell in [(1, 1, 1), (2, 1, 1), (3, 2, 1)]:
        g = make_grid((8, 4, 4), supercell)
        val = g.l2n(cos_mode(g))
        assert abs(val - 1 / np.sqrt(2)) < 1e-14


def test_hminus1_inner_against_direct_mode_sum(rng):
    # independent oracle: literal spectral sum, python loops over modes
    g = make_grid((4, 4, 4))
    vals = random_smooth_field(g, rng, 1.0, 1)
    vals -= np.mean(vals)
    f = ScalarField(g, vals)
    coeffs = g.fft(vals)
    total = 0.0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                kap = [x if x < 2 else x - 4 for x in (i, j, k)]
                if kap == [0, 0, 0]:
                    continue
                ksq = TWO_PI**2 * sum(c * c for c in kap)
                total += 4 * np.pi * abs(coeffs[i, j, k]) ** 2 / ksq
    assert abs(g.hminus1_inner(vals, vals) - total) < 1e-12 * max(total, 1.0)
    # frozen closed form for the single cosine mode
    c = cos_mode(g)
    assert abs(g.hminus1_inner(c, c) - (TWO_PI) ** (-4)) < 1e-16


def test_hminus1_requires_mean_zero():
    g = make_grid()
    with pytest.raises(SolvabilityError) as err:
        g.hminus1_inner(np.ones(g.shape), np.ones(g.shape))
    assert "(0,0,0)" in str(err.value)


def test_hminus1_symmetric_positive(rng):
    g = make_grid((4, 4, 4))
    a = random_smooth_field(g, rng, 1.0, 1)
    b = random_smooth_field(g, rng, 0.5, 1)
    a -= np.mean(a)
    b -= np.mean(b)
    assert abs(g.hminus1_inner(a, b) - g.hminus1_inner(b, a)) < 1e-14
    assert g.hminus1_inner(a, a) > 0


def test_parseval():
    g = make_grid((8, 4, 4), (2, 1, 1))
    rng = np.random.default_rng(7)
    vals = random_smooth_field(g, rng, 1.0, 2, supercell_modes=True)
    direct = g.l2n(vals)
    coeffs = g.fft(vals)
    spectral = np.sqrt(
        (TWO_PI**3 / g.vol_supercell) * np.sum(np.abs(coeffs) ** 2) / g.n_cells
    )
    assert abs(direct - spectral) < 1e-12 * direct


def test_norm_extension_invariance(rng):
    lat = unit_cube()
    g1 = Grid(lat, GridSpec((4, 4, 4)))
    vals = random_smooth_field(g1, rng, 1.0, 2)
    g3 = Grid(lat, GridSpec((4, 4, 4), (3, 1, 1)))
    ext = np.tile(vals, (3, 1, 1))
    assert g1.l2n(vals) == pytest.approx(g3.l2n(ext), abs=1e-15)
    assert g1.hk_norm(vals, 2) == pytest.approx(g3.hk_norm(ext, 2), rel=1e-12)


def test_hk_norm_orders():
    g = make_grid((8, 4, 4))
    c = cos_mode(g)
    l2 = 1 / np.sqrt(2)
    # H^1 = |f| + |df/dx1|; the cosine has one nonzero derivative
    expected_h1 = l2 + TWO_PI * l2
    assert abs(g.hk_norm(c, 1) - expected_h1) < 1e-12


# -- poisson ------------------------------------------------------------------


def test_poisson_single_mode():
    g = make_grid((8, 4, 4))
    rhs = 4 * np.pi * cos_mode(g)
    V = g.poisson(rhs)
    assert np.max(np.abs(V - cos_mode(g) / np.pi)) < 1e-13


def test_poisson_zero():
    g = make_grid()
    V = g.poisson(np.zeros(g.shape))
    assert np.all(V == 0.0)


def test_poisson_laplacian_roundtrip(rng):
    g = make_grid((8, 4, 4), (2, 1, 1))
    rhs = random_smooth_field(g, rng, 1.0, 2, supercell_modes=True)
    rhs -= np.mean(rhs)
    V = g.poisson(rhs)
    assert g.l2n(-g.laplacian(V) - rhs) <= 1e-11
    # and the reverse composition on a mean-zero potential
    W = random_smooth_field(g, rng, 1.0, 2, supercell_modes=True)
    W -= np.mean(W)
    assert g.l2n(g.poisson(-g.laplacian(W)) - W) <= 1e-11


def test_poisson_solvability_error():
    g = make_grid()
    with pytest.raises(SolvabilityError) as err:
        g.poisson(np.full(g.shape, 0.1))
    assert "(0,0,0)" in str(err.value)
    assert err.value.diagnostics() == {"mean": pytest.approx(0.1), "tolerance": pytest.approx(1e-11)}


def test_poisson_mean_zero_check_scales_by_the_callers_charge():
    # a neutral uniform charge leaves a right-hand side of pure roundoff,
    # whose mean is O(1) of its own norm: against the caller's charge it is
    # zero, and a charged field still raises with its payload
    g = make_grid()
    roundoff = 1e-16 * (1.0 + cos_mode(g))
    with pytest.raises(SolvabilityError):
        g.poisson(roundoff)
    g.poisson(roundoff, scale=3.0)
    with pytest.raises(SolvabilityError) as err:
        g.poisson(roundoff + 1e-6, scale=3.0)
    assert err.value.diagnostics()["tolerance"] == pytest.approx(3e-10)


# -- derivatives --------------------------------------------------------------


def test_derivative_cosine():
    g = make_grid((8, 4, 4))
    d = g.deriv(cos_mode(g), (1, 0, 0))
    expected = -TWO_PI * np.sin(TWO_PI * g.cell_fraction[0])
    assert np.max(np.abs(d - expected)) < 1e-12


def test_laplacian_constant_and_cosine():
    g = make_grid((8, 4, 4))
    assert np.max(np.abs(g.laplacian(np.full(g.shape, 3.0)))) == 0.0
    c = cos_mode(g)
    assert np.max(np.abs(g.laplacian(c) + TWO_PI**2 * c)) < 1e-11


def test_sheared_lattice_operators(rng):
    # non-orthogonal cell: k-vectors come from the true reciprocal rows
    A = np.array([[1.0, 0.0, 0.0], [0.3, 1.1, 0.0], [0.0, 0.2, 0.9]])
    lat = LatticeSpec(A, 1.0)
    g = Grid(lat, GridSpec((4, 4, 4)))
    vals = random_smooth_field(g, rng, 1.0, 1)
    vals -= np.mean(vals)
    V = g.poisson(vals)
    assert g.l2n(-g.laplacian(V) - vals) < 1e-11
    # mixed second derivatives commute
    d12 = g.deriv(g.deriv(vals, (1, 0, 0)), (0, 1, 0))
    d21 = g.deriv(vals, (1, 1, 0))
    assert np.max(np.abs(d12 - d21)) < 1e-10


# -- every spectral kernel against a per-field numpy.fft reference ----------------

SHEARED = [[1.0, 0.0, 0.0], [0.3, 0.9, 0.0], [0.1, -0.2, 1.1]]
KERNEL_GRIDS = {
    "sheared-cell": lambda: Grid(LatticeSpec(SHEARED, 2.0), GridSpec((4, 4, 4))),
    "sheared-supercell-4x1x1": lambda: Grid(
        LatticeSpec(SHEARED, 2.0), GridSpec((4, 4, 4), (4, 1, 1))
    ),
    # the real-input transform halves the longest axis: here the middle one
    # and the last one
    "sheared-supercell-1x3x1": lambda: Grid(
        LatticeSpec(SHEARED, 2.0), GridSpec((4, 4, 4), (1, 3, 1))
    ),
    "sheared-supercell-1x1x3": lambda: Grid(
        LatticeSpec(SHEARED, 2.0), GridSpec((4, 4, 4), (1, 1, 3))
    ),
    "workhorse-cell": lambda: Grid(unit_cube(3.0, [((1, 0, 0), 0.15)]), GridSpec((8, 4, 4))),
}


def _reference_multiplier(g, alpha):
    """The full-spectrum symbol prod_j (i k_j)^alpha_j of a derivative, odd
    orders zeroed on the Nyquist planes of their axis."""
    mult = np.ones(g.shape, dtype=complex)
    for j, a in enumerate(alpha):
        mult = mult * (1j * g.k_cart[j]) ** a
        if a % 2:
            plane = np.fft.fftfreq(g.shape[j]) * g.shape[j] == -(g.shape[j] // 2)
            mult = np.where(plane.reshape([-1 if i == j else 1 for i in range(3)]), 0.0, mult)
    return mult


def _reference_kernels(g):
    """Each kernel written field by field with numpy.fft: the complex
    transform of the whole spectrum, odd derivatives zeroed on the Nyquist
    planes of their axis."""

    def apply(x, symbol):
        return np.real(np.fft.ifftn(symbol * np.fft.fftn(x)))

    def multiplier(alpha):
        return _reference_multiplier(g, alpha)

    def l2n(x):
        return np.sqrt(np.sum(x * x) * g.vol_cell / g.total_points)

    def pairing(f, h):
        s = np.real(np.sum(np.conj(np.fft.fftn(f)) * np.fft.fftn(h) * g.inv_k_sq))
        return 4.0 * np.pi * s * g.w_quad / g.total_points

    scale = TWO_PI ** -1.5 * g.w_quad
    symbol = np.cos(g.k_cart[0] + 0.5 * g.k_cart[1]) / (1.0 + g.k_sq)
    derivs = {a: (lambda x, a=a: apply(x, multiplier(a))) for a in multi_indices(2)}
    # kernel -> (grid call, per-field reference), both of (x, y)
    return {
        **{
            f"deriv{alpha}": (lambda x, y, alpha=alpha: g.deriv(x, alpha), lambda x, y, r=r: r(x))
            for alpha, r in derivs.items()
        },
        "laplacian": (lambda x, y: g.laplacian(x), lambda x, y: apply(x, -g.k_sq)),
        "spectral_multiply": (
            lambda x, y: g.spectral_multiply(x, symbol),
            lambda x, y: apply(x, symbol),
        ),
        "poisson": (lambda x, y: g.poisson(x), lambda x, y: apply(x, g.inv_k_sq)),
        "hk_norm": (
            lambda x, y: g.hk_norm(x, 2),
            lambda x, y: sum(l2n(r(x)) for r in derivs.values()),
        ),
        "coulomb_pairing": (lambda x, y: g.coulomb_pairing(x, y), pairing),
        "fft": (lambda x, y: g.fft(x), lambda x, y: scale * np.fft.fftn(x)),
        # the inverse of a complex spectrum that is not Hermitian: its real part
        "ifft": (
            lambda x, y: g.ifft(x + 1j * y),
            lambda x, y: np.real(np.fft.ifftn(x + 1j * y)) / scale,
        ),
    }


KERNELS = list(_reference_kernels(Grid(unit_cube(), GridSpec((4, 4, 4)))))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("grid_name", list(KERNEL_GRIDS))
def test_kernels_match_per_field_numpy_fft(grid_name, kernel):
    # white noise fills every mode, the Nyquist planes included, where a
    # real-input transform or a kept odd Nyquist mode would differ
    g = KERNEL_GRIDS[grid_name]()
    call, reference = _reference_kernels(g)[kernel]
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((2, 3) + g.shape)
    x -= np.mean(x, axis=(1, 2, 3), keepdims=True)  # poisson needs mean zero
    expected = np.array([reference(x[i], y[i]) for i in range(3)])
    tol = 1e-13 * np.max(np.abs(expected))
    assert np.max(np.abs(call(x[0], y[0]) - expected[0])) <= tol
    stacked = call(x, y)
    assert np.shape(stacked) == np.shape(expected)
    assert np.max(np.abs(stacked - expected)) <= tol


@pytest.mark.parametrize("grid_name", list(KERNEL_GRIDS))
def test_sobolev_weights_are_the_folded_symbols(grid_name):
    # the weights are built on the half spectrum from real powers of k, and
    # folded explicitly only on the Nyquist planes where the mirror bin is
    # not -k; they must be |fold(m_alpha)|^2 of the full-spectrum symbols.
    # On a sheared grid those planes carry the fold: without it the weights
    # differ there at order one
    g = KERNEL_GRIDS[grid_name]()
    scale = g.w_quad / g.n_cells
    expected = np.stack(
        [(scale * np.abs(g.fold(_reference_multiplier(g, a))) ** 2).ravel() for a in multi_indices(2)]
    )
    weights = g._sobolev_weights(2)
    assert weights.shape == expected.shape
    assert np.max(np.abs(weights - expected)) <= 1e-15 * np.max(expected)
    if grid_name.startswith("sheared"):
        # the fold matters here: the unfolded modulus misses it
        unfolded = np.stack(
            [(scale * np.abs(_reference_multiplier(g, a)[g._half]) ** 2).ravel() for a in multi_indices(2)]
        )
        assert np.max(np.abs(unfolded - expected)) > 1e-3 * np.max(expected)


@pytest.mark.parametrize("grid_name", list(KERNEL_GRIDS))
def test_spectral_multiply_block_symbol(grid_name):
    # a (3, 3) + shape symbol mixes the stacked fields mode by mode: on the
    # half-spectrum coordinates its fold acts bin-wise, and its diagonal
    # alone is the stacked (3,) + shape multiply
    g = KERNEL_GRIDS[grid_name]()
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3,) + g.shape)
    symbol = np.cos(g.k_cart[0] + 0.5 * g.k_cart[1]) / (1.0 + g.k_sq)
    block = rng.standard_normal((3, 3, 1, 1, 1)) * symbol

    def block_multiply(b):
        return g.from_y(np.einsum("ij...,j...->i...", g.fold(b), g.to_y(x)))

    spectra = [np.fft.fftn(f) for f in x]
    expected = np.array(
        [np.real(np.fft.ifftn(sum(block[i, j] * spectra[j] for j in range(3)))) for i in range(3)]
    )
    tol = 1e-13 * np.max(np.abs(expected))
    assert np.max(np.abs(block_multiply(block) - expected)) <= tol
    diagonal = np.stack([block[i, i] for i in range(3)])
    only_diagonal = block * np.eye(3).reshape(3, 3, 1, 1, 1)
    assert np.max(np.abs(block_multiply(only_diagonal) - g.spectral_multiply(x, diagonal))) <= tol


class _CountingFFT:
    """Stands in for ``scipy.fft`` and records each n-D transform it
    forwards: its name and the axis it transforms last."""

    def __init__(self, module):
        self._module = module
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(self._module, name)
        if name not in ("fftn", "ifftn", "rfftn", "irfftn"):
            return fn

        def counted(*args, **kwargs):
            self.calls.append((name, kwargs.get("axes", (-1,))[-1]))
            return fn(*args, **kwargs)

        return counted


@pytest.mark.parametrize("grid_name", list(KERNEL_GRIDS))
def test_kernels_transform_the_half_spectrum_of_the_longest_axis(grid_name, monkeypatch):
    from tfdw import grids

    g = KERNEL_GRIDS[grid_name]()
    counter = _CountingFFT(grids.sfft)
    monkeypatch.setattr(grids, "sfft", counter)
    x = np.random.default_rng(13).standard_normal((3,) + g.shape)
    longest = int(np.argmax(g.shape)) - 3
    g.hk_norm(x, 2)
    # Parseval: one forward transform and no inverse
    assert counter.calls == [("rfftn", longest)]
    counter.calls.clear()
    g.laplacian(x)
    g.coulomb_pairing(x, x)
    assert counter.calls == [("rfftn", longest), ("irfftn", longest), ("rfftn", longest)]
    assert g.half_shape[longest] == g.shape[longest] // 2 + 1


@pytest.mark.parametrize("grid_name", ["sheared-cell", "sheared-supercell-4x1x1"])
def test_state_stack_roundtrip(grid_name):
    # the solver layout (nu_+, nu_-, V + gauge) and back: densities bit for
    # bit, the potential split again into a mean-zero part and its gauge
    g = KERNEL_GRIDS[grid_name]()
    rng = np.random.default_rng(5)
    nu_plus, nu_minus, v = 1.0 + 0.1 * rng.standard_normal((3,) + g.shape)
    v -= np.mean(v)
    state = State(ScalarField(g, nu_plus), ScalarField(g, nu_minus), ScalarField(g, v), -0.37)
    u = state.stacked()
    assert u.shape == (3,) + g.shape
    assert np.array_equal(u[0], nu_plus) and np.array_equal(u[1], nu_minus)
    assert np.array_equal(u[2], state.v_full_values())
    back = State.from_stack(g, u)
    flat = State.from_stack(g, u.ravel())
    assert back.grid == g and flat.grid == g
    for a, b in ((back, flat), (back, state)):
        assert np.array_equal(a.nu_plus.values, b.nu_plus.values)
        assert np.array_equal(a.nu_minus.values, b.nu_minus.values)
    assert np.array_equal(back.V.values, flat.V.values) and back.gauge == flat.gauge
    assert abs(np.mean(back.V.values)) <= 1e-15
    assert abs(back.gauge - state.gauge) <= 1e-15
    assert np.max(np.abs(back.v_full_values() - u[2])) <= 1e-15


def test_poisson_checks_each_stacked_field():
    g = make_grid()
    rhs = np.stack([cos_mode(g), cos_mode(g) + 0.1])
    with pytest.raises(SolvabilityError, match="nonzero mean"):
        g.poisson(rhs)


# -- fields and structural checks ----------------------------------------------


def test_field_grid_mismatch():
    a = ScalarField(make_grid(), np.zeros((4, 4, 4)))
    b = ScalarField(make_grid((4, 4, 4), (2, 1, 1)), np.zeros((8, 4, 4)))
    with pytest.raises(GridMismatchError):
        _ = a + b


def test_field_shape_check():
    with pytest.raises(StructuralError):
        ScalarField(make_grid(), np.zeros((4, 4)))


def test_domain_tag():
    assert make_grid().domain == "cell"
    assert make_grid((4, 4, 4), (2, 1, 1)).domain == "supercell"


# -- macroscopic field ----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_eps_is_the_inverse_supercell_factor(n):
    assert make_grid((4, 4, 4), (n, 1, 1)).eps == 1.0 / n
    assert make_grid((4, 4, 4)).eps == 1.0


def test_hfield_compatibility():
    g = make_grid((4, 4, 4), (4, 1, 1))
    h = HField(0.0, [((1, 0, 0), 0.1)])
    h.check_compatible(g)
    bad = HField(0.0, [((0, 1, 0), 0.1)])  # varies along a non-swept axis
    with pytest.raises(StructuralError):
        bad.check_compatible(g)


def test_hfield_sample_and_derivatives():
    g = make_grid((4, 4, 4), (4, 1, 1))
    eps = 0.25  # the grid's own scale ratio
    h = HField(0.2, [((1, 0, 0), 0.07, 0.3)])
    vals = h.sample(g).values
    x = eps * 4 * g.supercell_fraction[0]
    assert np.max(np.abs(vals - (0.2 + 0.07 * np.cos(TWO_PI * x + 0.3)))) < 1e-14
    grad = h.grad_slow(g)
    hess = h.hess_slow(g)
    expected_g = -TWO_PI * 0.07 * np.sin(TWO_PI * x + 0.3)
    expected_h = -(TWO_PI**2) * 0.07 * np.cos(TWO_PI * x + 0.3)
    assert np.max(np.abs(grad[0] - expected_g)) < 1e-13
    assert np.max(np.abs(hess[(0, 0)] - expected_h)) < 1e-12
    assert np.max(np.abs(grad[1])) == 0.0
    assert h.active_axes(g) == [0]
