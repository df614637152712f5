"""Linearized operator, Bloch-Floquet fibers and stability certification.

The linearization of the Euler-Lagrange system at u = (nu_+, nu_-, V) acts on
perturbation triples (w_+, w_-, W) as the symmetric block operator

    [ -Lap + F_+    0          nu_+      ] [w_+]
    [  0           -Lap + F_-  nu_-      ] [w_-]
    [  nu_+         nu_-       Lap/(8pi) ] [W  ]

with zeroth-order multipliers F_pm = (35/9)|nu_pm|^{4/3} - (20/9)|nu_pm|^{2/3}
+ V + gauge -+ h.  For a cell-periodic base state the operator decomposes into
fibers over the Brillouin zone: -Lap is replaced by (-i grad + xi)^2 acting on
cell-periodic functions.  The distance of the spectrum to zero over all fibers
is the stability margin M^{-1}.

A fiber is certified without its dense 3N x 3N matrix: its Coulomb block
-(-i grad + xi)^2/(8 pi) is diagonal in Fourier space, so eliminating it off
its z' near-null modes leaves a Hermitian block of dimension 2N + z' whose
LDL^H factors give the fiber's inertia and apply its inverse (FiberOperator).
Every gap is the eigenvalue nearest zero by shift-invert Lanczos.  The same
factorization at xi = 0, real there, solves every dense cell system
(LinearizedOperator.dense_solve).

Symmetry maps the fibers of a scan onto one another.  Let R be a signed
permutation of the cell axes that the grid shape and the reciprocal metric
admit (mirrors x_a -> -x_a, swaps of axes with equal n and equal metric),
acting on grid functions by (R u)(x) = u(R x), and let the multipliers be
invariant, F o R = F and nu o R = nu.  Every grid axis is even, so the
fftfreq mode window W of each axis satisfies -W = W + 1, and the fiber whose
fractions are R t, with t_a -> 1 - t_a on the axes R mirrors, is

    H(xi') = D R H(xi) R^H D^H,   D = diag(exp(-i G_S.x)),

G_S the sum of the reciprocal vectors b_a of the mirrored axes S.  Time
reversal, H(G - xi) = D conj(H(xi)) D^H with G = b_1 + b_2 + b_3, is the one
antiunitary element; F and nu are real, so it is always admitted, alone
and composed with each admitted R (it then flips the axes R leaves).  Both
fibers have the same spectrum and inertia, and u'(x) = exp(-i G_S.x) u(R x)
(conjugated under time reversal) is an eigenvector of H(xi') for every
eigenvector u of H(xi).  A stability scan factors one fiber per orbit.  The
state's invariance holds to roundoff, not bitwise: R is admitted once per
operator when delta_R = max(|F o R - F|, |nu o R - nu|) is within
SYMMETRY_RTOL of the multipliers' scale, and a mapped fiber takes the
solved fiber's inertia only where its gap exceeds delta_R plus the
residual bound (Weyl).  The fiber at -xi has another mode window, so its
discrete spectrum differs from that at xi.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft
from scipy.linalg.lapack import get_lapack_funcs
from scipy.optimize import minimize
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, minres

from . import fieldio
from .errors import EigensolverError, StructuralError
from .grids import AXES, Grid, State, as_h_values

EIGHT_PI = 8.0 * np.pi
SDW_CHANNEL_CUTOFF = 0.9
FIBER_NCV = 6  # Lanczos basis of the fiber solve (4 to 12 cost the same, measured)
FIBER_RESIDUAL_RTOL = 1e-12  # eigenpair residual bound, relative to max |H_ii|
BORDERED_RESIDUAL_RTOL = 1e-12  # bordered cell solve's normwise backward error bound
# weight of the seeded random vector added to a warm start, relative to the
# start's norm: it keeps every Fourier mode in the Lanczos start, far above
# rounding and above the Lanczos tolerance FIBER_RESIDUAL_RTOL.  It bounds the
# start's error from below: on the workhorse table a warm fiber takes 7 inner
# solves at 1e-8, 10 at 1e-4 (16 cold)
FIBER_START_BLEND = 1e-8
# smallest |k + xi|^2 (relative to the largest) that the fiber eliminates;
# the modes below it, exact nulls included, stay in K as bordered rows
# carrying their own Coulomb entry -|k + xi|^2/(8 pi)
COULOMB_ELIMINATION_RTOL = 1e-6
ZONE_SNAP_TOL = 1e-12  # fractional coordinates this close to an integer are that integer
# a signed axis permutation is a symmetry of the fibers where it keeps the
# reciprocal metric and F, nu to this much of their largest entry
SYMMETRY_RTOL = 1e-12
# smallest |eigenvalue| of the mean-coefficient block that the preconditioner
# inverts; below it the block counts as this far from singular
ABS_SYMBOL_FLOOR = 1e-2


def coefficient_fields(state: State, h=0.0):
    """Zeroth-order multipliers F_+ and F_- of the linearization."""
    grid = state.grid
    hv = as_h_values(h, grid)
    veff = state.v_full_values()
    out = []
    for nu, sign in ((state.nu_plus.values, -1.0), (state.nu_minus.values, +1.0)):
        out.append(
            (35.0 / 9.0) * np.abs(nu) ** (4.0 / 3.0)
            - (20.0 / 9.0) * np.abs(nu) ** (2.0 / 3.0)
            + veff
            + sign * hv
        )
    return out[0], out[1]


class LinearizedOperator:
    """Applies the symmetric linearization at a fixed base state, on grid
    values (``apply``) or on the isometric half-spectrum coordinates of
    its grid (``half_spectrum_pair``), where the iterative solves run."""

    def __init__(self, state: State, h=0.0):
        self.grid = state.grid
        self.F_plus, self.F_minus = coefficient_fields(state, h)
        self.nu_plus = state.nu_plus.values
        self.nu_minus = state.nu_minus.values

    @property
    def n_points(self):
        return self.grid.total_points

    @property
    def n_dof(self):
        return 3 * self.grid.total_points

    def apply(self, triple):
        """L applied to a perturbation triple; returns the ``(3,) + shape``
        stack of its three rows."""
        lap_plus, lap_minus, lap_v = self.grid.laplacian(np.asarray(triple))
        out = self._multiply(triple)
        out[0] -= lap_plus
        out[1] -= lap_minus
        out[2] += lap_v / EIGHT_PI
        return out

    def _multiply(self, triple, out=None):
        """The zeroth-order part of L, pointwise: the rows
        (F_+ w_+ + nu_+ W, F_- w_- + nu_- W, nu_+ w_+ + nu_- w_-), written
        into the ``(3,) + shape`` stack ``out`` where one is given."""
        w_plus, w_minus, w_v = triple
        out = np.empty((3,) + np.shape(w_plus)) if out is None else out
        terms = ((self.F_plus, w_plus, self.nu_plus, w_v), (self.F_minus, w_minus, self.nu_minus, w_v),
                 (self.nu_plus, w_plus, self.nu_minus, w_minus))
        for row, (a, x, b, y) in zip(out, terms):
            np.multiply(a, x, out=row)
            row += b * y
        return out

    def half_spectrum_pair(self):
        """(A_y, M_y): L and its SPD preconditioner |L_bar|^{-1} as
        LinearOperators on the float view, raveled, of the isometric
        half-spectrum coordinates y of a ``(3,) + shape`` stack
        (``Grid.to_y``).  The pair refers to the operator, not the operator
        to the pair, so no reference cycle keeps either alive.

        The map to y preserves the Euclidean norm and pairing, so MINRES on
        (A_y, M_y, to_y b) runs the iteration of (L, M, b) in other
        coordinates.  A_y applies the multipliers F_pm, nu_pm in real space,
        into a stack it keeps, between one inverse and one forward transform
        and adds the kinetic diagonal diag(|k|^2, |k|^2, -|k|^2/(8 pi))
        bin-wise; it returns a new array on every call (MINRES keeps earlier
        ones).  M_y applies the folded block of ``preconditioner_symbol``
        bin-wise, with no transform.  So a MINRES step makes one transform
        pair.

        |L_bar|^{-1} is the absolute-value preconditioner: L_bar is L with
        its coefficients replaced by their supercell means, Fourier-diagonal,
        and M_y inverts the absolute value of its block at every k
        (``preconditioner_symbol``).  Its eigenvalues are positive although
        L is indefinite, as MINRES requires, and on a uniform state, where
        L = L_bar, M_y A_y is the sign of L (Vecharynski and Knyazev, SIAM
        J. Sci. Comput. 35, 2013)."""
        g = self.grid
        shape = (3,) + g.half_shape
        n = 2 * int(np.prod(shape))
        # the float view interleaves real and imaginary parts along the last
        # array axis: every bin-wise factor repeats there
        k_sq = np.repeat(g.k_sq_half, 2, axis=-1)
        kinetic = np.stack([k_sq, k_sq, -k_sq / EIGHT_PI])
        block = np.repeat(self.preconditioner_symbol(), 2, axis=-1)
        rows = np.empty((3,) + g.shape)

        def a_y(x):
            x = np.ascontiguousarray(x, dtype=float)
            self._multiply(g.from_y(x.view(complex).reshape(shape)), out=rows)
            out = g.to_y(rows).view(float)
            out += kinetic * x.reshape(kinetic.shape)
            return out.ravel()

        def m_y(x):
            x = np.reshape(x, block.shape[1:])
            return np.einsum("ij...,j...->i...", block, x).ravel()

        return (
            LinearOperator((n, n), matvec=a_y, dtype=float),
            LinearOperator((n, n), matvec=m_y, dtype=float),
        )

    def preconditioner_symbol(self):
        """The folded ``(3, 3) + Grid.half_shape`` block symbol of the
        preconditioner |L_bar|^{-1} (``half_spectrum_pair``).

        L_bar is L with its coefficients replaced by their supercell means
        F_bar_pm and nu_bar_pm.  At each wavevector k it is the real
        symmetric block

            [[|k|^2 + F_bar_+, 0, nu_bar_+],
             [0, |k|^2 + F_bar_-, nu_bar_-],
             [nu_bar_+, nu_bar_-, -|k|^2/(8 pi)]] = Q diag(lambda) Q^T,

        and the symbol is Q diag(1/max(|lambda|, ABS_SYMBOL_FLOOR)) Q^T (one
        batched eigh over the distinct |k|^2, on which alone the block
        depends, of the half-spectrum bins k and their mirrors -k, folded as
        (S(k) + S(-k)) / 2, ``Grid.mirror_pair``).  Its eigenvalues
        1/max(|lambda|, ABS_SYMBOL_FLOOR) are positive at every k; the fold
        averages the blocks at k and -k, which keeps them so, and the floor
        keeps them bounded by 1/ABS_SYMBOL_FLOOR where the mean block is
        nearly singular.  It follows F_pm and the nu-V coupling, which an
        inverse-Helmholtz symbol ignores."""
        g = self.grid
        F = [np.mean(self.F_plus), np.mean(self.F_minus)]
        nu = [np.mean(self.nu_plus), np.mean(self.nu_minus)]
        k_sq, inverse = np.unique(np.stack(g.mirror_pair(g.k_sq)), return_inverse=True)
        block = np.zeros(k_sq.shape + (3, 3))
        for s in range(2):
            block[..., s, s] = k_sq + F[s]
            block[..., s, 2] = block[..., 2, s] = nu[s]
        block[..., 2, 2] = -k_sq / EIGHT_PI
        lam, Q = np.linalg.eigh(block)
        inv_abs = 1.0 / np.maximum(np.abs(lam), ABS_SYMBOL_FLOOR)
        symbol = np.einsum("...ik,...k,...jk->ij...", Q, inv_abs, Q)
        pair = np.take(symbol, inverse.reshape((2,) + g.half_shape), axis=-1)
        return 0.5 * (pair[:, :, 0] + pair[:, :, 1])

    def dense_matrix(self):
        """Real symmetric matrix of the operator on its own grid."""
        return _block_matrix(
            _dense_kinetic(self.grid),
            np.stack([self.F_plus.ravel(), self.F_minus.ravel()]),
            np.stack([self.nu_plus.ravel(), self.nu_minus.ravel()]),
        )

    def dense_solve(self, rhs, border=None):
        """Solve L x = rhs (flat, in the ``State.stacked`` layout) on the
        factors of the Gamma fiber (``gamma``), which need L itself
        nonsingular (an exactly singular L raises EigensolverError from
        ``FiberOperator.factor``, bordered or not).  ``border = (column,
        row)`` adds one more unknown m, L x + column m = rhs[:-1] and
        row . x = rhs[-1] (``rhs`` then carries one more entry), by block
        elimination on the same factors.
        Block elimination alone loses accuracy as L nears singularity even
        where the bordered matrix is well conditioned (the dual's mu row at
        the spin-wave threshold, where the soft mode of L is the border),
        so one step of iterative refinement follows it (Govaerts and Pryce,
        Numer. Math. 58, 1990), and a bordered solution whose residual
        exceeds BORDERED_RESIDUAL_RTOL of the system's scale raises
        EigensolverError."""
        fiber = self.gamma
        solve = fiber.solver()
        if border is None:
            return solve(rhs)
        column, row = border
        y = solve(column)

        def eliminate(b, c):
            x = solve(b)
            m = (row @ x - c) / (row @ y)
            return x - m * y, m

        def residual(x, m):
            return rhs[:-1] - fiber.apply(x) - column * m, rhs[-1] - row @ x

        with np.errstate(divide="ignore", invalid="ignore"):  # a singular border fails below
            x, m = eliminate(rhs[:-1], rhs[-1])
            dx, dm = eliminate(*residual(x, m))
            x, m = x + dx, m + dm
            r, c = residual(x, m)
        res = np.hypot(np.linalg.norm(r), c)
        scale = np.linalg.norm(rhs) + np.hypot(np.linalg.norm(x), m) * max(
            fiber.max_diagonal(), np.linalg.norm(column), np.linalg.norm(row)
        )
        if not res <= BORDERED_RESIDUAL_RTOL * scale:
            raise EigensolverError(
                f"bordered cell solve residual {res:.3e} exceeds "
                f"{BORDERED_RESIDUAL_RTOL:.0e} of its scale {scale:.3e}: the "
                "bordered matrix is singular to working precision",
                residual_history=[float(res)],
            )
        return np.append(x, m)

    @functools.cached_property
    def gamma(self):
        """The Gamma fiber, the real cell operator, factored once and
        keeping its factors (FiberOperator.solver): they serve every cell
        solve on this operator and the Gamma record of a scan given it
        (``stability_scan``)."""
        fiber = FiberOperator(self, np.zeros(3), wrap=False)
        fiber.solver()
        return fiber


def _block_matrix(T, F, nu):
    """Dense 3N x 3N linearization [[T + F_+, 0, nu_+], [0, T + F_-, nu_-],
    [nu_+, nu_-, -T/(8 pi)]] from the N x N kinetic matrix T and the (2, N)
    stacks of multipliers F and densities nu; real or complex as T is."""
    N = len(T)
    H = np.zeros((3, N, 3, N), dtype=T.dtype)
    H[2, :, 2] = -T / EIGHT_PI
    for s in range(2):
        H[s, :, s] = T + np.diag(F[s])
        H[s, :, 2] = H[2, :, s] = np.diag(nu[s])
    return H.reshape(3 * N, 3 * N)


def _dense_kinetic(grid: Grid):
    """Dense real symmetric matrix of -Lap on the grid."""
    key = "kin0"
    if key not in grid._cache:
        # a copy: the .real view alone would keep the complex matrix alive
        grid._cache[key] = _circulant(grid, grid.k_sq).real.copy()
    return grid._cache[key]


def _difference_index(grid: Grid):
    """Flat index of (x - y) mod shape for every pair (x, y) of grid points."""
    key = "diff_index"
    if key not in grid._cache:
        I = np.indices(grid.shape).reshape(3, -1)
        D = (I[:, :, None] - I[:, None, :]) % np.reshape(grid.shape, (3, 1, 1))
        grid._cache[key] = np.ravel_multi_index(tuple(D), grid.shape)
    return grid._cache[key]


def _circulant(grid: Grid, symbol):
    """Dense Hermitian matrix U^H diag(symbol) U of a real Fourier multiplier
    (``symbol`` in fft order) in the point basis.  It is multilevel
    circulant: entry [x, y] is ifftn(symbol) at (x - y) mod shape, so one
    inverse FFT and a gather build it."""
    D = _difference_index(grid)
    c = sfft.ifftn(symbol).ravel()
    c = 0.5 * (c + c[D[0]].conj())  # D[0] indexes -m: exactly Hermitian
    return c[D]


def wrap_to_zone(grid_or_lattice, xi):
    """Shift xi by a reciprocal lattice vector into the first zone
    (fractional coordinates in [-1/2, 1/2)).  A fractional coordinate that
    rounds to an integer becomes exactly 0: on a sheared lattice the solve
    leaves a reciprocal lattice vector a few 1e-17 off zero, which would
    make its fiber a Gamma fiber whose k = 0 Coulomb mode is not exactly
    null."""
    lattice = getattr(grid_or_lattice, "lattice", grid_or_lattice)
    B = lattice.reciprocal_vectors
    t = np.linalg.solve(B.T, np.asarray(xi, dtype=float))
    t -= np.floor(t + 0.5)
    t[np.abs(t) <= ZONE_SNAP_TOL] = 0.0
    return B.T @ t


class FiberOperator:
    """Bloch fiber of a cell-periodic linearized operator.

    ``wrap=False`` keeps the given quasimomentum as-is; needed when xi must
    match the mode window of a containing supercell exactly (see
    commensurate_xis).

    In the point basis the fiber is H = [[A, B], [B^H, C]]: A is the 2N x 2N
    density block blockdiag(T + F_+, T + F_-), B stacks diag(nu_+) and
    diag(nu_-), and C = -T/(8 pi), where T = (-i grad + xi)^2 is the
    circulant of the symbol |k + xi|^2.  On the plane waves C is diagonal,
    -|k + xi|^2/(8 pi).  Keep the z' waves u_Z with |k + xi|^2 below
    COULOMB_ELIMINATION_RTOL of the largest (exact or near nulls), C_Z their
    entries; Haynsworth elimination of C, negative definite on the other
    N - z' waves, leaves the bordered block

        K = [[A + 8 pi B G B^H, B u_Z], [u_Z^H B^H, C_Z]]

    of dimension 2N + z', G the circulant of 1/|k + xi|^2 off the modes u_Z.
    K carries the inertia of H, n_negative = (N - z') + neg(K), so a stable
    fiber has exactly N negative eigenvalues, and one Bunch-Kaufman
    factorization of K (``factor``) certifies the fiber: D has the inertia of K
    (Sylvester), and the same factors apply H^{-1} by block elimination in
    the shift-invert solve for the eigenvalue nearest zero.  At xi = 0 the
    fiber is the real cell operator and factors in real arithmetic; its
    solve is every dense cell solve (LinearizedOperator.dense_solve).  Its
    symbol there is the Hermitian fold (q(k) + q(-k))/2 of the Grid
    kernels, which differs from |k|^2 only at the Nyquist modes of a sheared
    lattice; every fiber at xi != 0 keeps the unfolded symbol, so on a
    sheared lattice the family jumps at Gamma in its high spectrum.  A
    fiber in the symmetry orbit of a solved one needs no factorization
    (``mapped``, module notes).  The dense ``matrix`` and its
    ``eigenvalues`` are references no certificate uses.
    """

    def __init__(self, op: LinearizedOperator, xi, wrap=True):
        if not op.grid.is_cell:
            raise StructuralError("fibers require a cell-periodic base state")
        g = self.grid = op.grid
        self.n_points = op.n_points
        self.xi = wrap_to_zone(g, xi) if wrap else np.asarray(xi, dtype=float)
        self.F = np.stack([op.F_plus.ravel(), op.F_minus.ravel()])
        self.nu = np.stack([op.nu_plus.ravel(), op.nu_minus.ravel()])
        q = sum((g.k_cart[a] + self.xi[a]) ** 2 for a in range(3))
        gamma = not np.any(self.xi)
        if gamma:
            # the real cell operator: the Hermitian fold (q(k) + q(-k))/2 of
            # the Grid kernels, which is q itself but at the Nyquist modes
            # of a sheared lattice, and the kinetic matrix of dense_matrix
            q = 0.5 * (q + q.ravel()[_difference_index(g)[0]].reshape(g.shape))
        self.symbol = q
        self._gamma = gamma
        self.kept = q.ravel() < COULOMB_ELIMINATION_RTOL * np.max(q)
        # at Gamma every circulant is real, and so is K when the one kept
        # mode is the constant k = 0 (a kept plane wave k != 0 is complex)
        self.dtype = float if gamma and np.count_nonzero(self.kept) == 1 else complex
        self._eigvals = None
        self._solve = None
        self.n_negative = None

    @functools.cached_property
    def kinetic(self):
        """The dense N x N circulant of T, built only for a fiber that is
        factored (``factor``) or assembled (``matrix``)."""
        return _dense_kinetic(self.grid) if self._gamma else _circulant(self.grid, self.symbol)

    @functools.cached_property
    def matrix(self):
        """The dense 3N x 3N fiber H."""
        return _block_matrix(self.kinetic, self.F, self.nu)

    def apply(self, x):
        """H x, matrix-free: T by FFT with the fiber's ``symbol``, real on a
        real x at Gamma, where the symbol is folded."""
        w = np.asarray(x).reshape((3,) + self.grid.shape)
        Tw = sfft.ifftn(self.symbol * sfft.fftn(w, axes=AXES), axes=AXES)
        if self._gamma and np.isrealobj(w):
            Tw = Tw.real
        w, Tw = w.reshape(3, self.n_points), Tw.reshape(3, self.n_points)
        out = np.empty_like(Tw)
        out[:2] = Tw[:2] + self.F * w[:2] + self.nu * w[2]
        out[2] = np.sum(self.nu * w[:2], axis=0) - Tw[2] / EIGHT_PI
        return out.ravel()

    def eigenvalues(self):
        """Full spectrum of the dense fiber, a reference for checks."""
        if self._eigvals is None:
            self._eigvals = np.linalg.eigvalsh(self.matrix)
        return self._eigvals

    def factor(self):
        """Factor the Coulomb-eliminated block K once (Bunch-Kaufman: zhetrf,
        or dsytrf where the fiber is real), set ``n_negative`` from its D and
        return the solve b -> H^{-1} b by block elimination on the factors.
        An exactly singular D (a zero pivot) admits no solve and raises
        EigensolverError.  Every call factors anew; ``solver`` keeps the
        factors."""
        N = self.n_points
        q = self.symbol.ravel()
        kept = self.kept
        inv_q = np.zeros_like(q)
        np.divide(EIGHT_PI, q, out=inv_q, where=~kept)
        P = _circulant(self.grid, inv_q.reshape(self.grid.shape))  # -C^+ = 8 pi G
        # the kept modes of C: the plane waves exp(i k.x)/sqrt(N)
        Z = np.sqrt(N) * sfft.ifftn(
            np.eye(N)[kept].reshape((-1,) + self.grid.shape), axes=AXES
        ).reshape(-1, N)
        if self.dtype is float:
            P, Z = P.real, Z.real

        # the factorization reads only the lower triangle of K, in Fortran
        # order: the upper triangle of the C-order array KT = K^T is that
        # memory, filled in place block by block (P^T = conj P, G Hermitian)
        n = 2 * N + len(Z)
        KT = np.zeros((n, n), dtype=self.dtype)
        for s in range(2):
            cols = slice(s * N, (s + 1) * N)
            for t in range(s + 1):
                block = KT[t * N : (t + 1) * N, cols]
                np.multiply(P.T, self.nu[t][:, None], out=block)
                block *= self.nu[s]
            block = KT[cols, cols]
            block += self.kinetic.T
            block[np.diag_indices(N)] += self.F[s]
            np.multiply(Z.T.conj(), self.nu[s][:, None], out=KT[cols, 2 * N :])
        corner = np.arange(2 * N, n)
        KT[corner, corner] = -q[kept] / EIGHT_PI  # C_Z, zero at an exact null
        factors, ipiv, info, trs = _bunch_kaufman(KT.T)
        if info > 0:
            raise EigensolverError(
                f"the reduced block of the fiber at xi = {tuple(self.xi)} is exactly singular",
                residual_history=[],
            )
        self.n_negative = (N - len(Z)) + _ldl_negative_count(factors, ipiv)
        nu = self.nu  # the solve, kept on the fiber, must not refer back to it

        def solve(b):
            # C^+ = -P: K (w, alpha) = (b_w - B C^+ b_W, u_Z^H b_W), then
            # W = C^+ (b_W - B^H w) + u_Z alpha
            r = np.asarray(b).reshape(3, N)
            Pr = P @ r[2]
            rhs = np.concatenate([(r[:2] + nu * Pr).ravel(), Z.conj() @ r[2]])
            y = trs(factors, ipiv, rhs, lower=1)[0]
            w = y[: 2 * N]
            W = P @ np.sum(nu * w.reshape(2, N), axis=0) - Pr + y[2 * N :] @ Z
            return np.concatenate([w, W])

        return solve

    def solver(self):
        """The solve of ``factor``, made on the first call and kept on the
        fiber; a fiber that never calls it keeps no factors."""
        if self._solve is None:
            self._solve = self.factor()
        return self._solve

    def min_eigenpair(self, start=None):
        """Eigenpair nearest zero and, as ``n_negative``, the number of
        negative eigenvalues, both from the one factorization of ``factor``:
        the count from D (exact at every xi, stable or not), the pair by
        shift-invert Lanczos at zero (_nearest_zero_pair) on the solve with
        its factors, H applied matrix-free.  Lanczos starts from a seeded
        random complex vector (its real part where the fiber is real, at
        Gamma) with weight on every Fourier mode of every channel (a
        constant one stays inside the k = 0 subspace of a uniform state).  ``start``, an approximate eigenvector such as the pair of a
        nearby fiber, warm-starts it with that vector added at
        FIBER_START_BLEND of its norm, so a start inside one invariant
        subspace (a plane wave of a uniform state) cannot lock the solve
        onto that subspace's eigenvalue.  Lanczos stops at the relative
        tolerance FIBER_RESIDUAL_RTOL, the pair's residual must be within
        FIBER_RESIDUAL_RTOL max |H_ii|, and an error carries the residual of
        the last inverse iterate.  A solve the fiber keeps (``solver``)
        spares the factorization."""
        solve = self._solve or self.factor()
        N = self.n_points
        last = [np.nan, np.nan]

        def inverse(b):
            last[:] = [b, solve(b)]
            return last[1]

        def history():
            # residual of the Rayleigh pair of the last inverse iterate x = H^{-1} b
            b, x = last
            mu = np.vdot(x, b).real / np.vdot(x, x).real
            return [float(np.linalg.norm(b - mu * x) / np.linalg.norm(x))]

        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(3 * N) + 1j * rng.standard_normal(3 * N)
        if self.dtype is float:
            v0 = v0.real
        if start is not None:
            start = np.real(start) if self.dtype is float else np.asarray(start)
            v0 = start + (FIBER_START_BLEND * np.linalg.norm(start) / np.linalg.norm(v0)) * v0
        shape = (3 * N, 3 * N)
        H = LinearOperator(shape, matvec=self.apply, dtype=self.dtype)
        H_inv = LinearOperator(shape, matvec=inverse, dtype=self.dtype)
        bound = self._residual_bound()
        return _nearest_zero_pair(
            H, H_inv, v0, FIBER_RESIDUAL_RTOL, lambda val: bound, history, self._where(), ncv=FIBER_NCV
        )

    def mapped(self, g: FiberSymmetry, val, vec, n_negative):
        """The eigenpair nearest zero of this fiber, the image under ``g`` of
        the solved fiber with pair (val, vec) and inertia ``n_negative``,
        with no factorization: u'(x) = exp(-i G_S.x) u(R x), conjugated
        under time reversal (module notes).  Returns (val, u'), sets
        ``n_negative``, and checks the pair's residual against this fiber's
        own H, matrix-free, with the bound of ``min_eigenpair``."""
        w = np.reshape(vec, (3, self.n_points))[:, g.gather]
        if g.conj:
            w = np.conj(w)
        flipped = np.flatnonzero(g.flip)
        if flipped.size:
            fractions = sum(self.grid.cell_fraction[a] for a in flipped)
            w = np.exp(-2j * np.pi * fractions).ravel() * w  # D = exp(-i G_S.x)
        vec = w.ravel()
        res = float(np.linalg.norm(self.apply(vec) - val * vec))
        if not res <= self._residual_bound():
            raise EigensolverError(
                f"mapped eigenpair residual {res:.3e} of {self._where()} exceeds "
                f"{self._residual_bound():.3e}",
                residual_history=[res],
            )
        self.n_negative = n_negative
        return val, vec

    def max_diagonal(self):
        """max |H_ii|, the scale of H in its residual bounds."""
        t = np.mean(self.symbol)  # every diagonal entry of T
        return max(np.max(np.abs(t + self.F)), t / EIGHT_PI)

    def _residual_bound(self):
        """FIBER_RESIDUAL_RTOL max |H_ii|, the bound on an eigenpair's residual."""
        return FIBER_RESIDUAL_RTOL * self.max_diagonal()

    def _where(self):
        return f"the fiber at xi = {tuple(self.xi)}"

    def eigenvalue_gradient(self, vec):
        """Hellmann-Feynman gradient in xi of a simple eigenvalue with unit
        eigenvector ``vec``: v^H (dH/dxi_a) v, where dH/dxi_a is
        blockdiag(1, 1, -1/(8 pi)) times U^H diag(2 (k_a + xi_a)) U."""
        g = self.grid
        w = sfft.fftn(vec.reshape((3,) + g.shape), axes=AXES) / np.sqrt(self.n_points)
        p = np.abs(w) ** 2
        weight = p[0] + p[1] - p[2] / EIGHT_PI
        return np.array([2.0 * np.sum((g.k_cart[a] + self.xi[a]) * weight) for a in range(3)])

    def record(self, val, vec):
        """FiberRecord of the eigenpair (val, vec) from min_eigenpair."""
        sdw, cdw = channel_characters(vec, self.n_points)
        return FiberRecord(
            tuple(np.asarray(self.xi, dtype=float)), abs(val), val, sdw, cdw, self.n_negative
        )


def _bunch_kaufman(K):
    """Bunch-Kaufman LDL^H factorization of the Hermitian K from its lower
    triangle, in place (zhetrf, or dsytrf for a real K): the factors, the
    pivots, LAPACK's info (> 0 at an exactly singular D) and the matching
    solve routine (zhetrs, dsytrs)."""
    if np.iscomplexobj(K):
        names = ("hetrf", "hetrs", "hetrf_lwork")
    else:
        names = ("sytrf", "sytrs", "sytrf_lwork")
    trf, trs, trf_lwork = get_lapack_funcs(names, (K,))
    lwork = int(trf_lwork(len(K), lower=1)[0].real)
    factors, ipiv, info = trf(K, lower=1, lwork=lwork, overwrite_a=True)
    return factors, ipiv, info, trs


def _ldl_negative_count(factors, ipiv):
    """Negative eigenvalues of the block-diagonal D of a lower Bunch-Kaufman
    factorization (``_bunch_kaufman``): one
    per negative 1x1 pivot; a 2x2 block (ipiv[k] == ipiv[k+1] < 0) has one
    when its determinant is negative, else two or none by the sign of its
    leading entry."""
    d = factors.diagonal().real
    in_block = ipiv < 0
    k = np.flatnonzero(in_block)[::2]  # first rows of the 2x2 blocks
    det = d[k] * d[k + 1] - np.abs(factors[k + 1, k]) ** 2
    return int(
        np.count_nonzero(d[~in_block] < 0.0)
        + np.count_nonzero(det < 0.0)
        + 2 * np.count_nonzero((det > 0.0) & (d[k] < 0.0))
    )


def channel_characters(vec, n_points):
    """Spin-wave character of an eigenvector: fraction of weight in the
    antisymmetric (1,-1,0) channel versus the symmetric (1,1,.) channel."""
    vp, vm, vw = np.reshape(vec, (3, n_points))
    nrm = np.linalg.norm(vec)
    sdw = np.linalg.norm(vp - vm) / np.sqrt(2.0) / nrm
    cdw = np.sqrt(np.linalg.norm(vp + vm) ** 2 / 2.0 + np.linalg.norm(vw) ** 2) / nrm
    return float(sdw), float(cdw)


def classify_character(sdw, cdw):
    if sdw > SDW_CHANNEL_CUTOFF:
        return "sdw"
    if cdw > SDW_CHANNEL_CUTOFF:
        return "cdw"
    return "mixed"


def spectral_gap(op: LinearizedOperator, tol=1e-8, seed=0):
    """Distance of the spectrum of the operator to zero, by shift-invert
    Lanczos at zero (_nearest_zero_pair, at most 400 restarts, seeded start
    vector) on the half-spectrum coordinates of its grid.  Each
    application of L^{-1} is a MINRES solve under the SPD absolute-value
    preconditioner |L_bar|^{-1} of the mean-coefficient block symbol
    (LinearizedOperator.half_spectrum_pair).  A failed run raises
    EigensolverError whose residual_history holds the relative residual of
    every inner solve."""
    A, M = op.half_spectrum_pair()
    history = []

    def solve(b):
        x, info = minres(A, b, M=M, rtol=1e-12, maxiter=op.n_dof)
        history.append(float(np.linalg.norm(A @ x - b) / np.linalg.norm(b)))
        if info != 0:
            raise EigensolverError(
                f"inner MINRES solve of the shift-invert step stopped (info {info}, "
                f"relative residual {history[-1]:.3e})",
                residual_history=history,
            )
        return x

    L_inv = LinearOperator(A.shape, matvec=solve, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal((3,) + op.grid.shape)
    val, _ = _nearest_zero_pair(
        A, L_inv, op.grid.to_y(v0).view(float).ravel(), tol,
        lambda lam: max(100 * tol * abs(lam), 1e-11), history.copy, "the operator", maxiter=400,
    )
    return abs(val)


def _nearest_zero_pair(A, A_inv, v0, tol, bound, history, where, **eigsh_args):
    """Eigenpair of the Hermitian operator A nearest zero: ARPACK's
    shift-invert Lanczos at sigma = 0 on the solve ``A_inv``, started from
    ``v0`` and stopped at the relative tolerance ``tol``.  Returns the
    normalized Ritz vector with its Rayleigh quotient, whose residual must
    not exceed ``bound(value)``.  A stopped Lanczos, or a missed bound,
    raises EigensolverError carrying ``history()``, the caller's residual
    history; ``where`` names the operator in the message."""
    try:
        _, vecs = eigsh(A, k=1, sigma=0.0, OPinv=A_inv, v0=v0, tol=tol, **eigsh_args)
    except ArpackError as err:
        raise EigensolverError(
            f"shift-invert Lanczos on {where} did not reach tolerance {tol:.1e}: {err}",
            residual_history=history(),
        ) from err
    vec = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    Av = A @ vec
    val = float(np.vdot(vec, Av).real)
    res = float(np.linalg.norm(Av - val * vec))
    if not res <= bound(val):
        raise EigensolverError(
            f"eigenpair residual {res:.3e} of {where} exceeds {bound(val):.3e}",
            residual_history=history(),
        )
    return val, vec


@dataclass
class FiberRecord:
    xi: tuple[float, float, float]
    gap: float
    eigenvalue: float
    sdw: float
    cdw: float
    n_negative: int

    @property
    def character(self):
        return classify_character(self.sdw, self.cdw)


@dataclass
class StabilityReport:
    """Per-fiber gaps, the global margin and the instability class."""

    fiber_records: list[FiberRecord]
    global_gap: float
    M: float
    classification: str
    threshold: float
    refined_xi: tuple[float, float, float] | None = None
    refined_gap: float | None = None
    # eigenvector of each fiber record, the warm start of the next scan on
    # the same xi grid; neither serialized nor compared
    fiber_vectors: list[np.ndarray] | None = field(default=None, repr=False, compare=False)

    @property
    def fiber_gaps(self):
        return [(r.xi, r.gap) for r in self.fiber_records]

    def to_json(self):
        return fieldio.json_text(
            {
                "global_gap": self.global_gap,
                "M": self.M,
                "classification": self.classification,
                "threshold": self.threshold,
                "refined_xi": list(self.refined_xi) if self.refined_xi else None,
                "refined_gap": self.refined_gap,
                "fibers": [
                    {
                        "xi": list(r.xi),
                        "gap": r.gap,
                        "eigenvalue": r.eigenvalue,
                        "sdw": r.sdw,
                        "cdw": r.cdw,
                        "class": r.character,
                        "n_negative": r.n_negative,
                    }
                    for r in self.fiber_records
                ],
            }
        )

    def write_csv(self, path):
        rows = [(*r.xi, r.gap, r.character) for r in self.fiber_records]
        fieldio.write_csv(path, ["xi1", "xi2", "xi3", "gap", "class"], rows)


@dataclass(frozen=True, eq=False)
class FiberSymmetry:
    """One element of the fibers' symmetry group (module notes): the
    signed axis permutation R, (R u)[i] = u[j] with j_{source[b]} =
    signs[b] i_b mod n in grid indices, composed with time reversal when
    ``conj``.  It maps the fiber at fractions t onto the fiber at
    fractions t[source], each flipped to 1 - t[source] on the axes
    ``flip``."""

    source: tuple[int, int, int]  # axis b of the image reads axis source[b]
    signs: tuple[int, int, int]  # -1 mirrors axis b of the image
    conj: bool  # time reversal
    gather: np.ndarray  # flat point map: (R u).ravel() = u.ravel()[gather]
    delta: float  # max(|F o R - F|, |nu o R - nu|), the bound of Weyl's transfer

    @property
    def flip(self):
        """The image axes S whose fraction flips, t -> 1 - t[source]: those
        R mirrors, or those it keeps under time reversal."""
        return (np.asarray(self.signs) < 0) != self.conj


def _axis_maps(grid: Grid):
    """The signed axis permutations that keep the grid's shape and its
    reciprocal metric M (Q^T M Q = M, Q the action on fractions): their
    (source, signs) and the (E, N) stack of their flat point maps, cached
    on the grid."""
    key = "axis_maps"
    if key not in grid._cache:
        B = grid.lattice.reciprocal_vectors
        M = B @ B.T
        index = np.arange(grid.total_points).reshape(grid.shape)
        maps, gathers = [], []
        for source in itertools.permutations(range(3)):
            if any(grid.shape[a] != grid.shape[b] for b, a in enumerate(source)):
                continue
            for signs in itertools.product((1, -1), repeat=3):
                Q = np.zeros((3, 3))
                Q[range(3), source] = signs
                if np.max(np.abs(Q.T @ M @ Q - M)) > SYMMETRY_RTOL * np.max(np.abs(M)):
                    continue
                gather = np.transpose(index, source)
                for b in np.flatnonzero(np.asarray(signs) < 0):
                    gather = np.roll(np.flip(gather, b), 1, b)  # i_b -> -i_b mod n_b
                maps.append((source, signs))
                gathers.append(gather.ravel())
        grid._cache[key] = maps, np.array(gathers)
    return grid._cache[key]


def fiber_symmetries(op: LinearizedOperator):
    """The symmetry group of the fibers of ``op`` (module notes): each
    signed axis permutation the grid admits (``_axis_maps``) that keeps the
    multipliers, delta_R within SYMMETRY_RTOL of max |F|, |nu|, alone and
    under time reversal, the identity first."""
    maps, gathers = _axis_maps(op.grid)
    coeffs = np.stack([op.F_plus, op.F_minus, op.nu_plus, op.nu_minus]).reshape(4, 1, -1)
    deltas = np.max(np.abs(coeffs[:, 0, gathers] - coeffs), axis=(0, 2))
    bound = SYMMETRY_RTOL * np.max(np.abs(coeffs))
    return [
        FiberSymmetry(source, signs, conj, gather, float(delta))
        for (source, signs), gather, delta in zip(maps, gathers, deltas)
        if delta <= bound
        for conj in (False, True)
    ]


class _Orbits:
    """The fibers of one operator solved so far, by eigensolve, and the
    solve of the next fiber: the image of a solved one under a symmetry
    (FiberOperator.mapped) where one is and Weyl transfers its inertia,
    else a factorization (FiberOperator.min_eigenpair)."""

    def __init__(self, op: LinearizedOperator):
        self.group = fiber_symmetries(op)
        self.source = np.array([g.source for g in self.group])
        self.flip = np.array([g.flip for g in self.group])
        self.B = op.grid.lattice.reciprocal_vectors
        self.solved = []  # (fractions of its images, eigenvalue, eigenvector, n_negative)

    def solve(self, f: FiberOperator, start=None):
        t = np.linalg.solve(self.B.T, f.xi)
        for images, val, vec, n_negative in self.solved:
            for i in np.flatnonzero(np.all(np.abs(images - t) <= ZONE_SNAP_TOL, axis=1)):
                if abs(val) > self.group[i].delta + f._residual_bound():
                    return f.mapped(self.group[i], val, vec, n_negative)
        val, vec = f.min_eigenpair(start)
        if np.any(f.xi):  # Gamma's fiber is folded and maps to none
            images = np.where(self.flip, 1.0 - t[self.source], t[self.source])
            self.solved.append((images, val, vec, f.n_negative))
        return val, vec


def monkhorst_pack(lattice, q):
    """Uniform q1 x q2 x q3 sampling of the Brillouin zone (Gamma included):
    the Monkhorst-Pack fractions (2 r - q + 1)/(2 q), taken modulo 1 into
    [0, 1), the convention of commensurate_xis.  On an even q every
    fraction t has its mirror image 1 - t in the set, so the fibers fall
    into symmetry orbits in stability_scan: (2, 2, 2) gives Gamma and the
    corners {1/4, 3/4}^3, 4 time-reversal pairs on any cell, one orbit on
    the workhorse cell, whose state is even in every axis."""
    B = lattice.reciprocal_vectors
    fractions = [sorted(((2 * r - n + 1) % (2 * n)) / (2 * n) for r in range(n)) for n in q]
    points = list(itertools.product(*fractions))  # distinct and exact; Gamma where all q_j are odd
    if (0.0, 0.0, 0.0) not in points:
        points.append((0.0, 0.0, 0.0))
    return [B.T @ np.array(t) for t in points]


def commensurate_xis(lattice, supercell):
    """The quasimomenta whose cell fibers block-diagonalize the supercell
    operator: xi = sum_j (m_j / n_j) b_j with m_j in 0..n_j-1.

    The fractions are deliberately left in [0, 1): with the fftfreq mode
    windows of even grids this unwrapped convention makes the union of fiber
    mode sets coincide with the supercell's mode set exactly, so the
    decomposition is exact linear algebra (use fibers with wrap=False)."""
    B = lattice.reciprocal_vectors
    out = []
    for m1 in range(supercell[0]):
        for m2 in range(supercell[1]):
            for m3 in range(supercell[2]):
                frac = np.array([m1 / supercell[0], m2 / supercell[1], m3 / supercell[2]])
                out.append(B.T @ frac)
    return out


def stability_scan(
    state: State,
    h=0.0,
    xi_grid=None,
    threshold=1e-6,
    refine=True,
    previous: StabilityReport | None = None,
    operator: LinearizedOperator | None = None,
) -> StabilityReport:
    """Scan fibers over the zone, each built at the quasimomentum it is
    given (no wrap), optionally refining the minimal gap, and classify an
    instability by the eigenvector character of the failing
    fibers: those with a gap below ``threshold`` and those whose number of
    negative eigenvalues is not N.  A scan with such an inertia is never
    ``stable``, even when every sampled gap clears the threshold.

    The scan factors one fiber per symmetry orbit (module notes).  The
    group is found once per scan (``fiber_symmetries``); a fiber whose
    fractions are the image of an already solved fiber's is not factored:
    it takes that fiber's eigenvalue, its inertia where Weyl transfers it,
    and the mapped eigenvector, whose residual is checked against its own H
    (FiberOperator.mapped).  The default 2 x 2 x 2 grid (monkhorst_pack)
    thus factors 2 fibers on the workhorse cell, one corner and Gamma, and
    at most 5 (4 corners and Gamma) on any cell, where time reversal alone
    pairs the corners.

    ``previous``, the report of a scan on the same xi grid at a nearby base
    state (the preceding sample of a continuation), warm-starts each
    fiber's eigensolve from that fiber's eigenvector there; the pairs are
    the same to the solver's tolerance, and only the work changes.
    ``operator``, the LinearizedOperator at (state, h) where the caller
    holds one, lends the scan its Gamma fiber, whose factors the caller's
    cell solves then reuse (LinearizedOperator.gamma); they stay alive
    through the refinement.

    Refinement first looks for an eigenvalue branch crossing zero between
    samples: if the scan holds fibers of both inertias, the crossing between
    the closest such pair, located by bisection on the inertia, is the
    refined point.  Otherwise BFGS descends |lambda| from the sampled
    minimum with the Hellmann-Feynman gradient.
    """
    grid = state.grid
    if not grid.is_cell:
        raise StructuralError("stability_scan needs a cell-periodic state")
    op = operator or LinearizedOperator(state, h)
    if xi_grid is None:
        xi_grid = monkhorst_pack(grid.lattice, (2, 2, 2))

    starts = [None] * len(xi_grid)
    if previous is not None:
        if [r.xi for r in previous.fiber_records] != [tuple(np.asarray(xi, dtype=float)) for xi in xi_grid]:
            raise StructuralError("a warm-starting report must be on the same xi grid")
        starts = previous.fiber_vectors

    orbits = _Orbits(op)
    records, vectors = [], []
    for xi, start in zip(xi_grid, starts):
        # the Gamma fiber of a given operator keeps its factors for the
        # caller; the scan's own is dropped after its record
        f = FiberOperator(op, xi, wrap=False) if np.any(xi) or operator is None else op.gamma
        val, vec = orbits.solve(f, start)
        records.append(f.record(val, vec))
        vectors.append(vec)

    gaps = [r.gap for r in records]
    i_min = int(np.argmin(gaps))
    global_gap = records[i_min].gap
    min_record = records[i_min]
    refined_xi = None
    refined_gap = None

    if refine:
        candidate = _inertia_crossing(op, records) or _descend(op, min_record, vectors[i_min], orbits)
        if candidate.gap < global_gap:
            refined_xi = tuple(wrap_to_zone(grid, candidate.xi))
            refined_gap = candidate.gap
            global_gap = refined_gap
            min_record = candidate

    # a fiber fails by a gap below the threshold or by an inertia other than
    # N, which a stable state never shows (see FiberOperator)
    failing = [
        r for r in records + [min_record] if r.gap < threshold or r.n_negative != op.n_points
    ]
    if not failing:
        classification = "stable"
    else:
        tags = {classify_character(r.sdw, r.cdw) for r in failing}
        if tags >= {"sdw", "cdw"}:
            classification = "both"
        elif "sdw" in tags:
            classification = "sdw_unstable"
        elif "cdw" in tags:
            classification = "cdw_unstable"
        else:
            # no dominant channel at the cutoff: fall back to the larger one
            # at the smallest failing gap
            worst = min(failing, key=lambda r: r.gap)
            classification = "sdw_unstable" if worst.sdw >= worst.cdw else "cdw_unstable"

    global_gap = max(global_gap, 1e-300)
    return StabilityReport(
        fiber_records=records,
        global_gap=global_gap,
        M=1.0 / global_gap,
        classification=classification,
        threshold=threshold,
        refined_xi=refined_xi,
        refined_gap=refined_gap,
        fiber_vectors=vectors,
    )


def _inertia_crossing(op: LinearizedOperator, records):
    """Zero crossing between the closest pair of sampled fibers with N and
    with another number of negative eigenvalues: bisection of the unwrapped
    segment between them to 1e-15 of its length, each step keeping the half
    whose ends differ in inertia.  The test n_negative == N at the midpoint
    is exact (Sylvester's law on the factors of ``FiberOperator.factor``),
    so no eigenvalue is computed until the record of the final midpoint.
    None when every sample has the same inertia class."""
    N = op.n_points
    pairs = [(a, b) for a in records if a.n_negative == N for b in records if b.n_negative != N]
    if not pairs:
        return None
    a, b = min(pairs, key=lambda p: np.linalg.norm(np.subtract(p[1].xi, p[0].xi)))
    start, step = np.asarray(a.xi), np.subtract(b.xi, a.xi)
    lo, hi = 0.0, 1.0  # N negative eigenvalues at lo, another count at hi
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        f = FiberOperator(op, start + mid * step, wrap=False)
        f.factor()
        lo, hi = (mid, hi) if f.n_negative == N else (lo, mid)
    f = FiberOperator(op, start + 0.5 * (lo + hi) * step, wrap=False)
    return f.record(*f.min_eigenpair())


def _descend(op: LinearizedOperator, start: FiberRecord, start_vec, orbits: _Orbits):
    """BFGS (at most 200 iterations) on |lambda| over fractional quasimomentum t (xi = B^T t); the
    gradient is sign(lambda) B dlambda/dxi.  Returns the record of the
    smallest gap evaluated.  Each eigensolve warm-starts from the
    eigenvector of the evaluation before, the first from ``start_vec``, the
    eigenvector of ``start``; a fiber in the orbit of one the scan or the
    descent solved is mapped (``orbits``), and a point evaluated before is
    not solved again.

    Near its minimum the gap is almost a function of |xi| alone: on the
    workhorse anchor it varies by 2e-6 along a valley |t| ~ 0.396, so BFGS
    from a body-diagonal sample stops on that valley (gradient below its
    tolerance) 3.4e-6 above the minimum on the b_1 axis.  The descent
    therefore starts from the smallest gap among the sampled fiber and its
    rotations onto the three reciprocal axes at the same |xi|, taken in the
    first zone (a sampled xi may be unwrapped, as the corner 3/4 of
    monkhorst_pack); on the workhorse cell the swap of its equal axes maps
    the b_2 probe onto the b_3 one."""
    B = op.grid.lattice.reciprocal_vectors
    evaluated = []  # (t, record, eigenvector, objective value and gradient)
    last = [start_vec]

    def objective(t):
        for s, _, vec, result in evaluated:
            if np.array_equal(s, t):
                last[0] = vec
                return result
        f = FiberOperator(op, B.T @ t)
        val, vec = orbits.solve(f, last[0])
        last[0] = vec
        result = abs(val), np.sign(val) * (B @ f.eigenvalue_gradient(vec))
        evaluated.append((np.array(t), f.record(val, vec), vec, result))
        return result

    radius = np.linalg.norm(wrap_to_zone(op.grid, start.xi))
    if radius > 0.0:
        for e, b in zip(np.eye(3), B):
            objective(e * radius / np.linalg.norm(b))
    starts = [(r, s) for s, r, _, _ in evaluated]
    starts.append((start, np.linalg.solve(B.T, wrap_to_zone(op.grid, start.xi))))
    t0 = min(starts, key=lambda rs: rs[0].gap)[1]
    minimize(objective, t0, jac=True, method="BFGS", options={"maxiter": 200, "gtol": 1e-6})
    return min((r for _, r, _, _ in evaluated), key=lambda r: r.gap)
