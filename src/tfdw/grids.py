"""Lattices, periodic collocation grids, spectral transforms and norms.

Conventions used throughout the package:

* A Bravais lattice is given by three row vectors ``a_i`` (``cell_vectors``);
  the reciprocal rows ``b_j`` satisfy ``a_i . b_j = 2 pi delta_ij``.
* Fields are sampled on a uniform collocation grid over the supercell
  ``n Gamma`` with ``M_i = resolution_i * supercell_i`` points per axis.
* Fourier coefficients follow the continuum normalization
  ``fhat(k) = (2 pi)^{-3/2} \\int_{n Gamma} f(x) exp(-i k x) dx``,
  approximated by the trapezoid/DFT quadrature (exact for band-limited f).
* Volume-averaged norms carry the ``1/(n1 n2 n3)`` prefactor, so constants
  and per-cell content measure the same on every supercell.
* Spectral kernels act on the last three axes, so each takes one field or a
  stack of fields of shape ``(c,) + shape`` in one batched transform.  Fields
  are real, so the kernels use real-input transforms (``rfftn``/``irfftn``)
  with the half axis along the grid's longest axis, and apply each symbol S in
  its Hermitian fold S_h(k) = (S(k) + conj S(-k)) / 2 (-k the index negation
  mod shape), kept on the half spectrum.  For real f,
  real(ifft(S fft(f))) = ifft(S_h fft(f)) exactly, so the fold reproduces the
  complex transform's result; it matters on a sheared lattice, where |k|^2 is
  not symmetric under k -> -k on the Nyquist planes of an even grid.  The
  fold is taken of the full symbol, never of |k|^2 before a nonlinear map.
  Sobolev norms follow by Parseval from one forward transform F of f (the
  unnormalized DFT) and no inverse:
  sum_x |d_alpha f|^2 = (1/N) sum_k w(k) |m_alpha,h(k) F(k)|^2 over the half
  spectrum, with w = 1 on the zero and Nyquist planes of the half axis (the
  planes that hold their own mirrors) and w = 2 elsewhere.
* The same weights make y = sqrt(w/N) F, its complex bins viewed as float
  pairs, isometric coordinates of f (``to_y``): |y| = |f|, and
  sum_x |d_alpha f|^2 = sum |m_alpha,h y|^2.  A solver that iterates on y
  applies every Fourier multiplier bin-wise, with no transform; the
  self-conjugate bins (index 0 or M/2 on every axis) hold real values, and
  their imaginary parts are kept at exactly 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .errors import GridMismatchError, SolvabilityError, StructuralError

TWO_PI = 2.0 * np.pi
FOURIER_PREFACTOR = (2.0 * np.pi) ** (-1.5)
AXES = (-3, -2, -1)  # the spatial axes; leading axes index stacked fields
MEAN_ZERO_TOL = 1e-10  # a mean counts as zero within this fraction of its scale


@dataclass(frozen=True)
class Mode:
    """One real Fourier mode ``amp * cos(2 pi m . frac + phase)`` of a
    lattice-periodic function, indexed by an integer triple ``m``."""

    m: tuple[int, int, int]
    amp: float
    phase: float = 0.0

    def __post_init__(self):
        if len(self.m) != 3 or any(int(c) != c for c in self.m):
            raise StructuralError(f"mode index must be an integer triple, got {self.m}")
        if np.asarray([self.amp, self.phase]).dtype.kind not in "iuf":
            raise StructuralError(f"mode amplitude and phase must be numbers, got {self.amp!r}, {self.phase!r}")
        object.__setattr__(self, "m", tuple(int(c) for c in self.m))

    def descriptor(self):
        """The JSON form of a mode, in a lattice's ``rho_b_modes`` and an
        HField's ``modes``; ``phase`` may be left out (0)."""
        return {"m": list(self.m), "amp": self.amp, "phase": self.phase}

    @classmethod
    def from_descriptor(cls, d):
        return cls(tuple(d["m"]), d["amp"], d.get("phase", 0.0))


class LatticeSpec:
    """Unit cell, electron count and smooth periodic background density.

    The background is ``rho_b(x) = Z/|Gamma| + sum_j amp_j cos(2 pi m_j . f(x)
    + phase_j)`` with ``f`` the cell-fractional coordinates, so its cell mean
    is pinned to ``Z/|Gamma|`` by construction and the normalization
    constraint is satisfiable.
    """

    def __init__(self, cell_vectors, Z, rho_b_modes=()):
        A = np.asarray(cell_vectors, dtype=float)
        if A.shape != (3, 3):
            raise StructuralError("cell_vectors must be a 3x3 matrix")
        det = float(np.linalg.det(A))
        if det <= 0.0:
            raise StructuralError(f"cell volume must be positive, got det = {det}")
        if not Z > 0:
            raise StructuralError("Z must be positive")
        self.cell_vectors = A
        self.Z = float(Z)
        modes = []
        for mode in rho_b_modes:
            if not isinstance(mode, Mode):
                mode = Mode(*mode)
            if mode.m == (0, 0, 0):
                raise StructuralError("rho_b modes must not touch the mean (m = 0); the mean is Z/|Gamma|")
            modes.append(mode)
        self.rho_b_modes = tuple(modes)

    @classmethod
    def cubic(cls, a, Z, rho_b_modes=()):
        return cls(np.eye(3) * float(a), Z, rho_b_modes)

    @property
    def volume(self):
        return float(np.linalg.det(self.cell_vectors))

    @property
    def reciprocal_vectors(self):
        """Rows b_j with a_i . b_j = 2 pi delta_ij."""
        return TWO_PI * np.linalg.inv(self.cell_vectors).T

    @property
    def rho_b_mean(self):
        return self.Z / self.volume

    def rho_b_values(self, grid):
        vals = np.full(grid.shape, self.rho_b_mean)
        for mode in self.rho_b_modes:
            phase = TWO_PI * sum(c * f for c, f in zip(mode.m, grid.cell_fraction))
            vals = vals + mode.amp * np.cos(phase + mode.phase)
        return vals

    def __eq__(self, other):
        return (
            isinstance(other, LatticeSpec)
            and np.array_equal(self.cell_vectors, other.cell_vectors)
            and self.Z == other.Z
            and self.rho_b_modes == other.rho_b_modes
        )

    def descriptor(self):
        return {
            "cell_vectors": self.cell_vectors.tolist(),
            "Z": self.Z,
            "rho_b_modes": [m.descriptor() for m in self.rho_b_modes],
        }

    @classmethod
    def from_descriptor(cls, d):
        modes = [Mode.from_descriptor(x) for x in d.get("rho_b_modes", [])]
        return cls(d["cell_vectors"], d["Z"], modes)


@dataclass(frozen=True)
class GridSpec:
    """Collocation resolution per unit-cell axis and supercell factors."""

    resolution: tuple[int, int, int]
    supercell: tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self):
        res = tuple(int(r) for r in self.resolution)
        sup = tuple(int(n) for n in self.supercell)
        if len(res) != 3 or any(r < 4 or r % 2 for r in res):
            raise StructuralError(f"resolution must be three even integers >= 4, got {res}")
        if len(sup) != 3 or any(n < 1 for n in sup):
            raise StructuralError(f"supercell factors must be positive integers, got {sup}")
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "supercell", sup)

    @property
    def shape(self):
        return tuple(r * n for r, n in zip(self.resolution, self.supercell))

    @property
    def total_points(self):
        return int(np.prod(self.shape))


class Grid:
    """Compiled lattice + grid: points, wavevectors and spectral kernels.

    Every spectral kernel transforms the last three axes, so it applies to a
    single field or to a ``(c,) + shape`` stack alike, and reductions (norms,
    pairings) return one value per stacked field.  The kernels use
    real-input transforms over the half spectrum (``half_shape``, halved
    along the longest axis) and apply Hermitian-folded symbols (``fold``),
    which gives the complex transform's result exactly (see the module
    notes); ``fft``/``ifft`` stay complex to complex, since they return or
    take full coefficient arrays.

    All operations are pure; the instance only caches immutable arrays, so a
    Grid may be shared freely across threads.  The lattice's background
    density on the grid is one of them (``rho_b``).
    """

    def __init__(self, lattice: LatticeSpec, spec: GridSpec):
        self.lattice = lattice
        self.spec = spec
        self.shape = spec.shape
        self.total_points = spec.total_points
        self.n_cells = int(np.prod(spec.supercell))
        self.vol_cell = lattice.volume
        self.vol_supercell = self.vol_cell * self.n_cells
        # quadrature weight of one collocation point
        self.w_quad = self.vol_supercell / self.total_points

        B = lattice.reciprocal_vectors
        # integer mode indices per axis, broadcasting against one another
        kappa = np.meshgrid(*(sfft.fftfreq(M) * M for M in self.shape), indexing="ij", sparse=True)
        # reciprocal fractions kappa_j / n_j in L*/n times the reciprocal rows
        self.k_cart = [sum(kappa[j] / spec.supercell[j] * B[j, a] for j in range(3)) for a in range(3)]
        self.k_sq = sum(k * k for k in self.k_cart)
        inv = np.zeros_like(self.k_sq)
        nz = self.k_sq > 0
        inv[nz] = 1.0 / self.k_sq[nz]
        self.inv_k_sq = inv
        # Nyquist planes per axis (unmatched mode on even grids); odd spectral
        # derivatives must kill them to stay skew-adjoint.
        self._nyquist = [np.broadcast_to(kappa[j] == -(M // 2), self.shape) for j, M in enumerate(self.shape)]

        # real-input transforms halve the longest axis (the first on a tie):
        # it is transformed last, as rfftn requires.  Every axis is even
        # (GridSpec), so irfftn recovers its length, and the last bin of the
        # half axis is its Nyquist plane
        r = int(np.argmax(self.shape))
        self._rfft_axes = tuple(a for a in AXES if a != AXES[r]) + (AXES[r],)
        self.half_shape = tuple(M // 2 + 1 if j == r else M for j, M in enumerate(self.shape))
        self._half = (Ellipsis,) + tuple(slice(H) for H in self.half_shape)
        self._mirror = (Ellipsis,) + np.ix_(
            *((-np.arange(H)) % M for H, M in zip(self.half_shape, self.shape))
        )
        # Parseval weight of a half-spectrum bin: its mirror is in the
        # discarded half except on the zero and Nyquist planes of that axis
        w = np.full(self.half_shape[r], 2.0)
        w[[0, -1]] = 1.0
        self._hermitian_weight = w.reshape([-1 if j == r else 1 for j in range(3)])
        # the isometric coordinates y = sqrt(w / N) rfftn(f) (``to_y``); the
        # self-conjugate bins, index 0 or M/2 on every axis, are real
        self._y_scale = np.sqrt(self._hermitian_weight / self.total_points)
        self._self_conjugate = (Ellipsis,) + np.ix_(*([0, M // 2] for M in self.shape))

        # fractional coordinates within the unit cell (exact rationals) and
        # across the whole supercell, in [0, 1): read-only full-grid views
        I = np.meshgrid(*(np.arange(M) for M in self.shape), indexing="ij", sparse=True)
        self.cell_fraction = [
            np.broadcast_to((I[j] % spec.resolution[j]) / spec.resolution[j], self.shape) for j in range(3)
        ]
        self.supercell_fraction = [np.broadcast_to(I[j] / self.shape[j], self.shape) for j in range(3)]
        self._cache: dict = {}

    # -- identity ---------------------------------------------------------

    @property
    def is_cell(self):
        return self.spec.supercell == (1, 1, 1)

    @property
    def domain(self):
        return "cell" if self.is_cell else "supercell"

    @property
    def eps(self):
        """The scale ratio eps = 1/n of the n-fold supercell: a slow field
        h(y) is sampled as h(eps x).  It is 1 on a cell."""
        return 1.0 / max(self.spec.supercell)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.lattice == other.lattice
            and self.spec == other.spec
        )

    @property
    def rho_b(self):
        """The lattice's background density at the grid points, computed
        once per grid; the array is read-only."""
        if "rho_b" not in self._cache:
            values = self.lattice.rho_b_values(self)
            values.flags.writeable = False
            self._cache["rho_b"] = values
        return self._cache["rho_b"]

    def cell_grid(self):
        """The unit-cell grid with the same per-cell resolution."""
        if self.is_cell:
            return self
        return Grid(self.lattice, GridSpec(self.spec.resolution, (1, 1, 1)))

    # -- transforms --------------------------------------------------------

    def fft(self, values):
        """Paper-normalized Fourier coefficients fhat(k) on L*/n."""
        return (FOURIER_PREFACTOR * self.w_quad) * sfft.fftn(values, axes=AXES)

    def ifft(self, coeffs):
        return sfft.ifftn(coeffs, axes=AXES).real / (FOURIER_PREFACTOR * self.w_quad)

    def mirror_pair(self, symbol):
        """A full-spectrum array (fft order over the last three axes) on the
        half-spectrum bins k and on their mirrors -k (index negation mod shape)."""
        symbol = np.asarray(symbol)
        return symbol[self._half], symbol[self._mirror]

    def fold(self, symbol):
        """Hermitian fold (S(k) + conj S(-k)) / 2 of a full-spectrum symbol
        on the half spectrum (``mirror_pair``)."""
        half, mirror = self.mirror_pair(symbol)
        return 0.5 * (half + np.conj(mirror))

    def _folded(self, key, build):
        """The fold of the full symbol ``build()``, cached under ``key``."""
        if key not in self._cache:
            self._cache[key] = self.fold(build())
        return self._cache[key]

    def _rfft(self, values):
        return sfft.rfftn(values, axes=self._rfft_axes)

    def _irfft(self, spectrum):
        return sfft.irfftn(spectrum, axes=self._rfft_axes, overwrite_x=True)

    def to_y(self, values):
        """Isometric half-spectrum coordinates y = sqrt(w / N) rfftn(f) of
        real fields (one per stacked field), w the Parseval weight of each
        bin (module notes): a complex ``half_shape`` array whose float view
        has the Euclidean norm of the grid values, with the imaginary parts
        of the self-conjugate bins exactly 0.  A Fourier multiplier S acts
        on y bin-wise by its fold S_h, and the pairing of two coordinate
        vectors (as float views) is the plain sum over grid points of the
        fields' product."""
        y = self._rfft(values)
        y *= self._y_scale
        y.imag[self._self_conjugate] = 0.0
        return y

    def from_y(self, y):
        """The real fields of half-spectrum coordinates (inverse of
        ``to_y``, and its transpose: the float views pair as the fields
        do)."""
        return self._irfft(y / self._y_scale)

    @property
    def k_sq_half(self):
        """|k|^2 folded on the half spectrum: the symbol of -Laplacian on
        the coordinates of ``to_y``; cached."""
        return self._folded(("k_sq",), lambda: self.k_sq)

    def _apply_symbol(self, values, symbol):
        """real(ifft(S * fft(values))) for the folded half-spectrum symbol
        ``symbol`` = S_h, multiplied in place."""
        spectrum = self._rfft(values)
        spectrum *= symbol
        return self._irfft(spectrum)

    def _symbols(self, alphas, index=(Ellipsis,), unit=1j):
        """prod_j (unit k_j)^alpha_j at the bins ``index``, one per multi-index
        of ``alphas``: the derivative symbols (unit = i) or, real, their
        moduli up to sign (unit = 1).  Odd orders vanish on the Nyquist
        planes of their axis (the unmatched mode of an even grid), which
        keeps them skew-adjoint."""
        alphas = np.asarray(alphas)
        out = 1.0
        for j, k in enumerate(self.k_cart):
            k, nyquist = unit * k[index], self._nyquist[j][index]
            powers = [np.where(nyquist, 0.0, k**a) if a % 2 else k**a for a in range(max(alphas[:, j]) + 1)]
            out = out * np.stack(powers)[alphas[:, j]]
        return out

    def _multiplier(self, alpha):
        """Folded Fourier symbol of the derivative alpha (``_symbols``), cached."""
        return self._folded(("deriv", alpha), lambda: self._symbols([alpha])[0])

    def deriv(self, values, alpha):
        """Spectral partial derivative with multi-index ``alpha``."""
        alpha = tuple(alpha)
        if len(alpha) != 3 or any(a < 0 for a in alpha):
            raise StructuralError(f"bad multi-index {alpha}")
        if sum(alpha) == 0:
            return np.array(values, dtype=float)
        return self._apply_symbol(values, self._multiplier(alpha))

    def gradient(self, values):
        return [self.deriv(values, tuple(int(j == a) for j in range(3))) for a in range(3)]

    def laplacian(self, values):
        out = self._apply_symbol(values, self.k_sq_half)
        return np.negative(out, out=out)

    def spectral_multiply(self, values, symbol):
        """real(ifft(symbol * fft(values))) for a diagonal operator.

        The symbol is given on the full spectrum (trailing axes ``shape``),
        and is folded on every call, or already folded on the half spectrum
        (trailing axes ``half_shape``, see ``fold``)."""
        if np.shape(symbol)[-3:] == self.shape:
            symbol = self.fold(symbol)
        return self._apply_symbol(values, symbol)

    def helmholtz_inverse(self, values):
        """(1 - Laplacian)^{-1}, the standard smoothing preconditioner."""
        symbol = self._folded(("helmholtz",), lambda: 1.0 / (1.0 + self.k_sq))
        return self.spectral_multiply(values, symbol)

    def poisson(self, rhs, scale=None):
        """Unique mean-zero V with -Laplacian V = rhs, for mean-zero rhs
        (each stacked right-hand side is checked on its own).  A mean counts
        as zero within ``MEAN_ZERO_TOL`` of ``scale``: the size of the charge
        the caller's right-hand side balances, such as 4 pi |rho_b| for
        4 pi (rho - rho_b), or by default the norm of rhs itself (which
        rejects the roundoff left by a balanced uniform charge)."""
        means = np.ravel(np.mean(rhs, axis=AXES))
        if scale is None:
            scale = np.maximum(np.ravel(self.l2n(rhs)), 1e-300)
        tolerance = MEAN_ZERO_TOL * np.broadcast_to(scale, means.shape)
        bad = np.flatnonzero(np.abs(means) > tolerance)
        if bad.size:
            m = means[bad[0]]
            raise SolvabilityError(
                "poisson right-hand side has nonzero mean: coefficient at k = (0,0,0) "
                f"is {m * self.vol_supercell:.3e} (mean {m:.3e}); the mean-zero "
                "compatibility condition fails",
                mean=float(m),
                tolerance=float(tolerance[bad[0]]),
            )
        return self._apply_symbol(rhs, self._folded(("poisson",), lambda: self.inv_k_sq))

    # -- quadrature and norms ----------------------------------------------

    def integrate(self, values):
        """Unscaled integral over the supercell."""
        return float(np.sum(values) * self.w_quad)

    def mean(self, values):
        return float(np.mean(values))

    def inner(self, f, g):
        """Plain L^2(n Gamma) inner product (unscaled)."""
        return float(np.sum(f * g) * self.w_quad)

    def l2n(self, values):
        """Volume-averaged L^2 norm ((1/n^3) \\int |f|^2)^{1/2}, one per
        stacked field."""
        return np.sqrt(np.sum(values * values, axis=AXES) * self.w_quad / self.n_cells)

    def l2n_inner(self, f, g):
        return float(np.sum(f * g) * self.w_quad / self.n_cells)

    def hk_norm(self, values, k):
        """Averaged Sobolev norm: sum of L^2_n norms of all derivatives
        of order <= k (the order-zero term included), one per stacked field.
        By Parseval from one forward transform and no inverse (module
        notes)."""
        return self.hk_norm_y(self.to_y(values), k)

    def hk_norm_y(self, y, k):
        """``hk_norm`` of the fields whose half-spectrum coordinates are
        ``y`` (``to_y``), by Parseval with no transform."""
        power = (y.real**2 + y.imag**2).reshape(y.shape[:-3] + (-1, 1))
        # a matrix-vector product per field, so a stack sums as its fields do
        return np.sum(np.sqrt(self._sobolev_weights(k) @ power), axis=(-2, -1))

    def _sobolev_weights(self, k):
        """``(derivatives, half points)`` matrix of |m_alpha,h|^2 times the
        norm's scale, one row per multi-index of order <= k; cached.  Built
        on the half spectrum from the real powers k_j^alpha_j, the folded
        symbol's modulus where the mirror bin holds -k: everywhere but on
        the Nyquist planes of the axes j that the reciprocal basis couples
        (b_j off e_j, or another b_i with a j component), which are folded
        explicitly."""
        key = ("sobolev", k)
        if key not in self._cache:
            alphas = multi_indices(k)
            power = self._symbols(alphas, self._half, unit=1.0) ** 2
            B = self.lattice.reciprocal_vectors
            off = B != np.diag(np.diag(B))
            coupled = np.flatnonzero(off.any(axis=0) | off.any(axis=1))
            at = np.nonzero(sum((self._nyquist[j] for j in coupled), np.zeros(self.shape, bool))[self._half])
            if at[0].size:
                mirror = tuple((-i) % M for i, M in zip(at, self.shape))
                folded = 0.5 * (self._symbols(alphas, at) + np.conj(self._symbols(alphas, mirror)))
                power[(slice(None),) + at] = np.abs(folded) ** 2
            self._cache[key] = (self.w_quad / self.n_cells * power).reshape(len(alphas), -1)
        return self._cache[key]

    def hminus1_inner(self, f, g):
        """Homogeneous H^{-1} inner product: 4 pi sum'_k fhat* ghat / |k|^2,
        for fields whose means are zero within ``MEAN_ZERO_TOL`` of their
        norms."""
        fh = self.fft(f)
        gh = self.fft(g)
        for name, vals, coeffs in (("first", f, fh), ("second", g, gh)):
            if abs(coeffs.flat[0]) > MEAN_ZERO_TOL * max(
                self.l2n(vals) * FOURIER_PREFACTOR * self.vol_supercell, 1e-300
            ):
                raise SolvabilityError(
                    f"H^-1 pairing needs mean-zero fields: the {name} argument has "
                    f"coefficient {coeffs.flat[0]:.3e} at k = (0,0,0)"
                )
        return float(np.real(4.0 * np.pi * np.sum(np.conj(fh) * gh * self.inv_k_sq)))

    def coulomb_pairing(self, f, g):
        """D(f, g) = \\int V_f g with -Laplacian V_f = 4 pi f, computed
        spectrally.  This is the pairing that makes the Poisson equation the
        stationarity condition of (1/2) D(rho - rho_b, rho - rho_b); it equals
        the H^-1 inner product times (2 pi)^3 / |n Gamma| in the coefficient
        normalization used here.  One value per stacked pair, summed over the
        half spectrum with the Parseval weights of the module notes."""
        fh = self._rfft(f)
        gh = fh if g is f else self._rfft(g)
        weight = self._folded(("poisson",), lambda: self.inv_k_sq) * self._hermitian_weight
        s = np.sum((fh.real * gh.real + fh.imag * gh.imag) * weight, axis=AXES)
        return 4.0 * np.pi * s * self.w_quad / self.total_points


def multi_indices(k):
    """All 3d multi-indices with |alpha| <= k, in a fixed deterministic order."""
    out = []
    for total in range(k + 1):
        for a1 in range(total + 1):
            for a2 in range(total - a1 + 1):
                out.append((a1, a2, total - a1 - a2))
    return out


# -- fields ----------------------------------------------------------------


@dataclass
class ScalarField:
    """Real periodic field sampled on a collocation grid.

    Values are stored row-major over the axes; fields are treated as
    immutable after construction (operations return new instances).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise StructuralError(
                f"field values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        self.values = vals

    @property
    def domain(self):
        return self.grid.domain

    def _check(self, other):
        if not isinstance(other, ScalarField):
            raise GridMismatchError("expected a ScalarField operand")
        if other.grid != self.grid:
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other):
        if np.isscalar(other):
            return ScalarField(self.grid, self.values + other)
        self._check(other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other):
        if np.isscalar(other):
            return ScalarField(self.grid, self.values - other)
        self._check(other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, other):
        if np.isscalar(other):
            return ScalarField(self.grid, self.values * other)
        self._check(other)
        return ScalarField(self.grid, self.values * other.values)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values)


def constant_field(grid, value):
    return ScalarField(grid, np.full(grid.shape, float(value)))


# -- states ------------------------------------------------------------------


@dataclass
class State:
    """Solver unknown: spin channels (nu_plus, nu_minus), the mean-zero
    Coulomb potential V and the additive gauge constant that carries the
    normalization multiplier (the effective potential is V + gauge)."""

    nu_plus: ScalarField
    nu_minus: ScalarField
    V: ScalarField
    gauge: float = 0.0

    def __post_init__(self):
        g = self.nu_plus.grid
        if self.nu_minus.grid != g or self.V.grid != g:
            raise GridMismatchError("state fields must share one grid")

    @property
    def grid(self):
        return self.nu_plus.grid

    def rho_values(self):
        return self.nu_plus.values**2 + self.nu_minus.values**2

    def m_values(self):
        return self.nu_plus.values**2 - self.nu_minus.values**2

    def v_full_values(self):
        return self.V.values + self.gauge

    def min_nu(self):
        """The smallest value of either spin channel."""
        return float(min(self.nu_plus.values.min(), self.nu_minus.values.min()))

    def copy(self):
        g = self.grid
        return State(
            ScalarField(g, self.nu_plus.values.copy()),
            ScalarField(g, self.nu_minus.values.copy()),
            ScalarField(g, self.V.values.copy()),
            self.gauge,
        )

    def stacked(self):
        """The solver layout: a ``(3,) + shape`` array (nu_+, nu_-, V +
        gauge); its ``ravel()`` is the flat 3N vector of the dense and
        iterative solves."""
        return np.stack([self.nu_plus.values, self.nu_minus.values, self.v_full_values()])

    @classmethod
    def from_stack(cls, grid, u):
        """Inverse of ``stacked``: ``u`` is a flat 3N vector or a ``(3,) +
        shape`` array, and the mean of its potential row becomes the gauge.
        The density fields are views of ``u``, not copies."""
        nu_plus, nu_minus, v_full = np.reshape(u, (3,) + grid.shape)
        gauge = float(np.mean(v_full))
        return cls(
            ScalarField(grid, nu_plus),
            ScalarField(grid, nu_minus),
            ScalarField(grid, v_full - gauge),
            gauge,
        )


def translate(values, grid, cells):
    """Translate a field by an integer number of unit cells per axis
    (exact on the collocation grid)."""
    shift = [c * r for c, r in zip(cells, grid.spec.resolution)]
    return np.roll(values, shift, axis=(0, 1, 2))


def random_smooth_field(grid, rng, amplitude=1.0, kmax=2, supercell_modes=False):
    """Seeded band-limited random field: a few low cosine modes.

    With ``supercell_modes`` the mode indices address the supercell (period
    n Gamma); otherwise they are cell-periodic.
    """
    frac = grid.supercell_fraction if supercell_modes else grid.cell_fraction
    vals = np.zeros(grid.shape)
    for m in itertools.product(range(-kmax, kmax + 1), repeat=3):
        if m == (0, 0, 0):
            continue
        amp = amplitude * rng.normal() / (1.0 + sum(c * c for c in m))
        phase = rng.uniform(0.0, TWO_PI)
        vals += amp * np.cos(TWO_PI * sum(c * f for c, f in zip(m, frac)) + phase)
    return vals


# -- macroscopic applied field ----------------------------------------------


class HField:
    """Applied collinear field given on the slow (macroscopic) unit cell.

    ``h(y) = value + sum_j amp_j cos(2 pi m_j . f(y) + phase_j)`` where f are
    cell-fractional coordinates of the slow variable.  On a supercell grid
    the sampled field is ``h(eps x)`` with the grid's scale ratio
    ``eps = grid.eps``; slow-variable gradient and Hessian are available
    analytically, which the two-scale correctors need exactly.  The solvers
    take the field only as values on their grid (``sample``).
    """

    def __init__(self, value=0.0, modes=()):
        self.value = float(value)
        self.modes = tuple(m if isinstance(m, Mode) else Mode(*m) for m in modes)

    def check_compatible(self, grid):
        """h(eps x) must be periodic on the supercell: eps * n_j * m_j integral."""
        for mode in self.modes:
            for j in range(3):
                t = grid.eps * grid.spec.supercell[j] * mode.m[j]
                if abs(t - round(t)) > 1e-12:
                    raise StructuralError(
                        f"mode {mode.m} is not periodic on supercell "
                        f"{grid.spec.supercell} at eps = {grid.eps}"
                    )

    def _mode_terms(self, grid):
        """(mode, phase 2 pi m . f(eps x) + phase, A^-1 m) per mode on ``grid``."""
        self.check_compatible(grid)
        Ainv = np.linalg.inv(grid.lattice.cell_vectors)

        def phase(mode):
            # 2 pi m . f(eps x) + phase; a zero index adds an exact zero: skipped
            axes = zip(mode.m, grid.spec.supercell, grid.supercell_fraction)
            return TWO_PI * sum(c * (grid.eps * n * frac) for c, n, frac in axes if c) + mode.phase

        return [(mode, phase(mode), Ainv @ np.array(mode.m, float)) for mode in self.modes]

    def sample(self, grid):
        """ScalarField of h(eps x) on the supercell grid."""
        vals = np.full(grid.shape, self.value)
        for mode, phase, _ in self._mode_terms(grid):
            vals = vals + mode.amp * np.cos(phase)
        return ScalarField(grid, vals)

    def grad_slow(self, grid):
        """Cartesian slow-variable gradient of h at y = eps x (3 arrays)."""
        out = [np.zeros(grid.shape) for _ in range(3)]
        for mode, phase, mfrac in self._mode_terms(grid):
            s = -TWO_PI * mode.amp * np.sin(phase)
            for a in np.flatnonzero(mfrac):
                out[a] = out[a] + s * mfrac[a]
        return out

    def hess_slow(self, grid):
        """Cartesian slow-variable Hessian of h (dict over ordered pairs)."""
        out = {(a, b): np.zeros(grid.shape) for a in range(3) for b in range(3)}
        for mode, phase, mfrac in self._mode_terms(grid):
            c = -(TWO_PI**2) * mode.amp * np.cos(phase)
            for a, b in itertools.product(np.flatnonzero(mfrac), repeat=2):
                out[(a, b)] = out[(a, b)] + c * mfrac[a] * mfrac[b]
        return out

    def active_axes(self, grid):
        """Axes along which h actually varies on this supercell."""
        axes = set()
        for mode, _, mfrac in self._mode_terms(grid):
            if mode.amp == 0.0:
                continue
            for a in range(3):
                if abs(mfrac[a]) > 1e-14:
                    axes.add(a)
        return sorted(axes)

    def descriptor(self):
        return {"value": self.value, "modes": [m.descriptor() for m in self.modes]}

    @classmethod
    def from_descriptor(cls, d):
        return cls(d.get("value", 0.0), [Mode.from_descriptor(x) for x in d.get("modes", [])])


def as_h_values(h, grid):
    """The applied field as values on ``grid``: None (zero field), a
    constant, or a ScalarField on that grid.  A slowly varying HField
    reaches the solvers sampled (``HField.sample``)."""
    if h is None:
        return np.zeros(grid.shape)
    if np.isscalar(h):
        return np.full(grid.shape, float(h))
    if isinstance(h, ScalarField):
        if h.grid != grid:
            raise GridMismatchError("applied field lives on a different grid")
        return h.values
    raise StructuralError(f"cannot interpret applied field of type {type(h)!r}")
