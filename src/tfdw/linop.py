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
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import zhetrf, zhetrf_lwork, zhetrs
from scipy.optimize import brentq, minimize
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh, minres

from .errors import EigensolverError, StructuralError
from .grids import Grid, ScalarField, State, as_h_values
from .fieldio import atomic_write_text

EIGHT_PI = 8.0 * np.pi
DENSE_CUTOFF = 2048  # dense eigensolve up to this many unknowns (faster and smaller below)
SDW_CHANNEL_CUTOFF = 0.9
FIBER_NCV = 6  # Lanczos basis of the fiber solve (4 to 12 cost the same, measured)
FIBER_RESIDUAL_RTOL = 1e-12  # eigenpair residual bound, relative to max |H_ii|


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
    """Applies the symmetric linearization at a fixed base state."""

    def __init__(self, state: State, h=0.0):
        self.grid = state.grid
        self.base_state = state
        self.h = h
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
        w_plus, w_minus, w_v = triple
        g = self.grid
        out_plus = -g.laplacian(w_plus) + self.F_plus * w_plus + self.nu_plus * w_v
        out_minus = -g.laplacian(w_minus) + self.F_minus * w_minus + self.nu_minus * w_v
        out_v = (
            self.nu_plus * w_plus
            + self.nu_minus * w_minus
            + g.laplacian(w_v) / EIGHT_PI
        )
        return out_plus, out_minus, out_v

    def matvec(self, x):
        x = np.asarray(x).ravel()
        N = self.n_points
        shape = self.grid.shape
        triple = (
            x[:N].reshape(shape),
            x[N : 2 * N].reshape(shape),
            x[2 * N :].reshape(shape),
        )
        a, b, c = self.apply(triple)
        return np.concatenate([a.ravel(), b.ravel(), c.ravel()])

    def as_linear_operator(self):
        return LinearOperator((self.n_dof, self.n_dof), matvec=self.matvec, dtype=float)

    def preconditioner(self):
        """SPD inverse-Helmholtz block preconditioner as a LinearOperator.

        Diagonal symbols (1 + |k|^2)^{-1} on the density channels and
        8 pi (1 + |k|^2)^{-1} on the potential channel.
        """
        g = self.grid
        N = self.n_points
        sym_nu = 1.0 / (1.0 + g.k_sq)
        sym_v = EIGHT_PI * sym_nu

        def mv(x):
            x = np.asarray(x).ravel()
            out = np.empty_like(x)
            out[:N] = g.spectral_multiply(x[:N].reshape(g.shape), sym_nu).ravel()
            out[N : 2 * N] = g.spectral_multiply(
                x[N : 2 * N].reshape(g.shape), sym_nu
            ).ravel()
            out[2 * N :] = g.spectral_multiply(x[2 * N :].reshape(g.shape), sym_v).ravel()
            return out

        return LinearOperator((self.n_dof, self.n_dof), matvec=mv, dtype=float)

    def dense_matrix(self):
        """Real symmetric matrix of the operator on its own grid."""
        T = _dense_kinetic(self.grid, None)
        N = self.n_points
        H = np.zeros((3 * N, 3 * N))
        H[:N, :N] = T + np.diag(self.F_plus.ravel())
        H[N : 2 * N, N : 2 * N] = T + np.diag(self.F_minus.ravel())
        H[2 * N :, 2 * N :] = -T / EIGHT_PI
        dp = np.diag(self.nu_plus.ravel())
        dm = np.diag(self.nu_minus.ravel())
        H[:N, 2 * N :] = dp
        H[2 * N :, :N] = dp
        H[N : 2 * N, 2 * N :] = dm
        H[2 * N :, N : 2 * N] = dm
        return H


def _dense_dft(grid: Grid):
    """Unitary DFT matrix U[k, x] = exp(-i k . x) / sqrt(N)."""
    key = "dft"
    if key not in grid._dense_cache:
        N = grid.total_points
        eye = np.eye(N).reshape((N,) + grid.shape)
        F = np.fft.fftn(eye, axes=(1, 2, 3)).reshape(N, N)
        grid._dense_cache[key] = F.T / np.sqrt(N)
    return grid._dense_cache[key]


def _dense_kinetic(grid: Grid, xi):
    """Dense matrix of (-i grad + xi)^2; xi = None means the plain -Lap
    (real symmetric)."""
    if xi is None:
        key = "kin0"
        if key not in grid._dense_cache:
            U = _dense_dft(grid)
            q = grid.k_sq.ravel()
            T = (U.conj().T * q) @ U
            T = np.real(T)
            grid._dense_cache[key] = 0.5 * (T + T.T)
        return grid._dense_cache[key]
    U = _dense_dft(grid)
    q = sum((grid.k_cart[a] + xi[a]) ** 2 for a in range(3)).ravel()
    T = (U.conj().T * q) @ U
    return 0.5 * (T + T.conj().T)


def wrap_to_zone(grid_or_lattice, xi):
    """Shift xi by a reciprocal lattice vector into the first zone
    (fractional coordinates in [-1/2, 1/2))."""
    lattice = getattr(grid_or_lattice, "lattice", grid_or_lattice)
    B = lattice.reciprocal_vectors
    t = np.linalg.solve(B.T, np.asarray(xi, dtype=float))
    t -= np.floor(t + 0.5)
    return B.T @ t


class FiberOperator:
    """Dense Bloch fiber of a cell-periodic linearized operator.

    ``wrap=False`` keeps the given quasimomentum as-is; needed when xi must
    match the mode window of a containing supercell exactly (see
    commensurate_xis).

    The fiber's -Lap/(8 pi) block is negative definite, so by Haynsworth
    inertia a stable fiber (positive Schur complement) has exactly N
    negative eigenvalues, N the number of grid points.  One Bunch-Kaufman
    factorization H = P L D L^H P^T certifies the fiber: D has the inertia
    of H (Sylvester), and the same factors drive the shift-invert solve for
    the eigenvalue nearest zero.
    """

    def __init__(self, op: LinearizedOperator, xi, wrap=True):
        if not op.grid.is_cell:
            raise StructuralError("fibers require a cell-periodic base state")
        self.grid = op.grid
        self.n_points = N = op.n_points
        self.xi = wrap_to_zone(self.grid, xi) if wrap else np.asarray(xi, dtype=float)
        T = _dense_kinetic(self.grid, self.xi)
        H = np.zeros((3 * N, 3 * N), dtype=complex)
        H[:N, :N] = T + np.diag(op.F_plus.ravel())
        H[N : 2 * N, N : 2 * N] = T + np.diag(op.F_minus.ravel())
        H[2 * N :, 2 * N :] = -T / EIGHT_PI
        dp = np.diag(op.nu_plus.ravel().astype(complex))
        dm = np.diag(op.nu_minus.ravel().astype(complex))
        H[:N, 2 * N :] = dp
        H[2 * N :, :N] = dp
        H[N : 2 * N, 2 * N :] = dm
        H[2 * N :, N : 2 * N] = dm
        self.matrix = H
        self._eigvals = None
        self.n_negative = None

    def eigenvalues(self):
        if self._eigvals is None:
            self._eigvals = np.linalg.eigvalsh(self.matrix)
        return self._eigvals

    def eigenvalue(self, index):
        """The index-th smallest eigenvalue alone."""
        return float(eigh(self.matrix, eigvals_only=True, subset_by_index=[index, index])[0])

    def gap(self):
        return abs(self.min_eigenpair()[0])

    def min_eigenpair(self):
        """Eigenpair nearest zero and, as ``n_negative``, the number of
        negative eigenvalues, both from one LDL^H factorization of the fiber.

        The count is read from D (exact at every xi, stable or not); the
        eigenpair is the largest one of H^{-1} by shift-invert Lanczos at
        zero (ARPACK, seeded random start: a constant one stays inside the
        k = 0 subspace of a uniform state), each application of H^{-1} a
        pair of triangular solves on the factors, and its eigenvalue is the
        Rayleigh quotient.  A stopped solve, or a pair whose residual
        exceeds FIBER_RESIDUAL_RTOL max |H_ii|, raises EigensolverError with
        that residual.  An exactly singular factorization falls back to the
        full spectrum."""
        H = self.matrix
        n = H.shape[0]
        lwork = int(zhetrf_lwork(n, lower=1)[0].real)
        factors, ipiv, info = zhetrf(H, lower=1, lwork=lwork)
        if info > 0:
            vals, vecs = np.linalg.eigh(H)
            self._eigvals = vals
            self.n_negative = int(np.count_nonzero(vals < 0.0))
            i = int(np.argmin(np.abs(vals)))
            return float(vals[i]), vecs[:, i]
        self.n_negative = _ldl_negative_count(factors, ipiv)

        last = []

        def solve(b):
            x = zhetrs(factors, ipiv, b, lower=1)[0]
            last[:] = [b, x]
            return x

        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        H_inv = LinearOperator(H.shape, matvec=solve, dtype=complex)
        try:
            _, vecs = eigsh(H, k=1, sigma=0.0, OPinv=H_inv, ncv=FIBER_NCV, v0=v0)
        except ArpackError as err:
            # residual of the Rayleigh pair of the last inverse iterate x = H^{-1} b
            res = float("nan")
            if last:
                b, x = last
                mu = np.vdot(x, b).real / np.vdot(x, x).real
                res = float(np.linalg.norm(b - mu * x) / np.linalg.norm(x))
            raise EigensolverError(
                f"shift-invert Lanczos on the fiber at xi = {tuple(self.xi)} stopped "
                f"(residual of its last iterate {res:.3e}): {err}",
                residual_history=[res],
            ) from err
        vec = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        Hv = H @ vec
        val = float(np.vdot(vec, Hv).real)
        res = float(np.linalg.norm(Hv - val * vec))
        bound = FIBER_RESIDUAL_RTOL * float(np.max(np.abs(H.diagonal())))
        if not res <= bound:
            raise EigensolverError(
                f"fiber eigenpair residual {res:.3e} exceeds {bound:.3e} at xi = {tuple(self.xi)}",
                residual_history=[res],
            )
        return val, vec

    def eigenvalue_gradient(self, vec):
        """Hellmann-Feynman gradient in xi of a simple eigenvalue with unit
        eigenvector ``vec``: v^H (dH/dxi_a) v, where dH/dxi_a is
        blockdiag(1, 1, -1/(8 pi)) times U^H diag(2 (k_a + xi_a)) U."""
        g = self.grid
        w = np.fft.fftn(vec.reshape((3,) + g.shape), axes=(1, 2, 3)) / np.sqrt(self.n_points)
        p = np.abs(w) ** 2
        weight = p[0] + p[1] - p[2] / EIGHT_PI
        return np.array([2.0 * np.sum((g.k_cart[a] + self.xi[a]) * weight) for a in range(3)])

    def record(self, val, vec):
        """FiberRecord of the eigenpair (val, vec) from min_eigenpair."""
        sdw, cdw = channel_characters(vec, self.n_points)
        return FiberRecord(
            tuple(np.asarray(self.xi, dtype=float)), abs(val), val, sdw, cdw, self.n_negative
        )


def _ldl_negative_count(factors, ipiv):
    """Negative eigenvalues of the block-diagonal D of zhetrf(lower=1): one
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


def fiber(op: LinearizedOperator, xi, wrap=True) -> FiberOperator:
    return FiberOperator(op, xi, wrap)


def channel_characters(vec, n_points):
    """Spin-wave character of an eigenvector: fraction of weight in the
    antisymmetric (1,-1,0) channel versus the symmetric (1,1,.) channel."""
    vp = vec[:n_points]
    vm = vec[n_points : 2 * n_points]
    vw = vec[2 * n_points :]
    nrm = np.linalg.norm(vec)
    sdw = np.linalg.norm(vp - vm) / np.sqrt(2.0) / nrm
    cdw = np.sqrt(np.linalg.norm(vp + vm) ** 2 / 2.0 + np.linalg.norm(vw) ** 2) / nrm
    return float(sdw), float(cdw)


def classify_character(sdw, cdw, cutoff=SDW_CHANNEL_CUTOFF):
    if sdw > cutoff:
        return "sdw"
    if cdw > cutoff:
        return "cdw"
    return "mixed"


def spectral_gap(op, tol=1e-8, seed=0, maxiter=400, dense_cutoff=DENSE_CUTOFF):
    """Distance of the spectrum to zero.

    A FiberOperator answers through its own min_eigenpair; an array, or an
    operator small enough to assemble densely, through a dense symmetric
    eigensolve.  Larger operators use
    shift-invert Lanczos at zero (ARPACK, at most ``maxiter`` restarts, seeded
    start vector): the largest eigenvalue of L^{-1} in modulus is 1/lambda
    for the lambda closest to zero, and each application of L^{-1} is a
    MINRES solve under the inverse-Helmholtz preconditioner.  A failed run
    raises EigensolverError whose residual_history holds the relative
    residual of every inner solve.
    """
    if isinstance(op, FiberOperator):
        return op.gap()
    if isinstance(op, np.ndarray):
        return float(np.min(np.abs(np.linalg.eigvalsh(op))))
    if op.n_dof <= dense_cutoff:
        return float(np.min(np.abs(np.linalg.eigvalsh(op.dense_matrix()))))

    A = op.as_linear_operator()
    M = op.preconditioner()
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
    v0 = np.random.default_rng(seed).standard_normal(op.n_dof)
    try:
        vals, vecs = eigsh(A, k=1, sigma=0.0, OPinv=L_inv, tol=tol, maxiter=maxiter, v0=v0)
    except ArpackNoConvergence as err:
        raise EigensolverError(
            f"shift-invert Lanczos did not reach tolerance {tol} after {maxiter} "
            f"restarts ({len(history)} inner solves)",
            residual_history=history,
        ) from err
    lam = float(vals[0])
    v = vecs[:, 0]
    true_res = float(np.linalg.norm(A @ v - lam * v))
    if true_res > max(100 * tol * abs(lam), 1e-11):
        raise EigensolverError(
            f"shift-invert Lanczos eigenpair residual {true_res:.3e} exceeds "
            f"tolerance {tol}",
            residual_history=history,
        )
    return abs(lam)


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

    @property
    def fiber_gaps(self):
        return [(r.xi, r.gap) for r in self.fiber_records]

    def to_json(self):
        return json.dumps(
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
            },
            indent=2,
            sort_keys=True,
        )

    def fibers_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["xi1", "xi2", "xi3", "gap", "class"])
        for r in self.fiber_records:
            writer.writerow(
                [f"{r.xi[0]:.17g}", f"{r.xi[1]:.17g}", f"{r.xi[2]:.17g}", f"{r.gap:.17g}", r.character]
            )
        return buf.getvalue()

    def write_csv(self, path):
        atomic_write_text(path, self.fibers_csv())


def monkhorst_pack(lattice, q):
    """Uniform q1 x q2 x q3 sampling of the Brillouin zone (Gamma included)."""
    B = lattice.reciprocal_vectors
    pts = []
    for r1 in range(q[0]):
        for r2 in range(q[1]):
            for r3 in range(q[2]):
                frac = np.array(
                    [
                        (2 * r1 - q[0] + 1) / (2 * q[0]),
                        (2 * r2 - q[1] + 1) / (2 * q[1]),
                        (2 * r3 - q[2] + 1) / (2 * q[2]),
                    ]
                )
                pts.append(B.T @ frac)
    pts.append(np.zeros(3))
    uniq = []
    for p in pts:
        if not any(np.allclose(p, u, atol=1e-12) for u in uniq):
            uniq.append(p)
    return uniq


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
    refine_maxiter=200,
    character_cutoff=SDW_CHANNEL_CUTOFF,
    threads=1,
) -> StabilityReport:
    """Scan fibers over the zone, each built at the quasimomentum it is
    given (no wrap), optionally refining the minimal gap, and classify an
    instability by the eigenvector character of the failing
    fibers: those with a gap below ``threshold`` and those whose number of
    negative eigenvalues is not N.  A scan with such an inertia is never
    ``stable``, even when every sampled gap clears the threshold.

    Refinement first looks for an eigenvalue branch crossing zero between
    samples: if the scan holds fibers of both inertias, the crossing between
    the closest such pair is the refined point.  Otherwise BFGS descends
    |lambda| from the sampled minimum with the Hellmann-Feynman gradient.

    Fibers are independent; with ``threads > 1`` they are solved on a pool
    and merged back in xi order.
    """
    grid = state.grid
    if not grid.is_cell:
        raise StructuralError("stability_scan needs a cell-periodic state")
    op = LinearizedOperator(state, h)
    if xi_grid is None:
        xi_grid = monkhorst_pack(grid.lattice, (2, 2, 2))

    def analyze_one(xi):
        f = FiberOperator(op, xi, wrap=False)
        return f.record(*f.min_eigenpair())

    if threads > 1 and len(xi_grid) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(analyze_one, xi_grid))
    else:
        records = [analyze_one(xi) for xi in xi_grid]

    gaps = [r.gap for r in records]
    i_min = int(np.argmin(gaps))
    global_gap = records[i_min].gap
    min_record = records[i_min]
    refined_xi = None
    refined_gap = None

    if refine:
        candidate = _inertia_crossing(op, records) or _descend(op, min_record, refine_maxiter)
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
        tags = {classify_character(r.sdw, r.cdw, character_cutoff) for r in failing}
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
    )


def _inertia_crossing(op: LinearizedOperator, records):
    """Zero crossing between the closest pair of sampled fibers with N and
    with another number of negative eigenvalues: brentq along the unwrapped
    segment on the eigenvalue whose sign differs at its ends.  None when
    every sample has the same inertia class."""
    N = op.n_points
    pairs = [(a, b) for a in records if a.n_negative == N for b in records if b.n_negative != N]
    if not pairs:
        return None
    a, b = min(pairs, key=lambda p: np.linalg.norm(np.subtract(p[1].xi, p[0].xi)))
    index = N if b.n_negative > N else N - 1
    start, step = np.asarray(a.xi), np.subtract(b.xi, a.xi)
    s = brentq(
        lambda s: FiberOperator(op, start + s * step, wrap=False).eigenvalue(index),
        0.0,
        1.0,
        xtol=1e-15,
    )
    f = FiberOperator(op, start + s * step, wrap=False)
    return f.record(*f.min_eigenpair())


def _descend(op: LinearizedOperator, start: FiberRecord, maxiter):
    """BFGS on |lambda| over fractional quasimomentum t (xi = B^T t) from a
    sampled fiber; the gradient is sign(lambda) B dlambda/dxi.  Returns the
    record of the smallest gap evaluated."""
    B = op.grid.lattice.reciprocal_vectors
    evaluated = []

    def objective(t):
        f = FiberOperator(op, B.T @ t)
        val, vec = f.min_eigenpair()
        evaluated.append(f.record(val, vec))
        return abs(val), np.sign(val) * (B @ f.eigenvalue_gradient(vec))

    t0 = np.linalg.solve(B.T, np.asarray(start.xi))
    minimize(objective, t0, jac=True, method="BFGS", options={"maxiter": maxiter, "gtol": 1e-6})
    return min(evaluated, key=lambda r: r.gap)
