"""Dense complex linear algebra for small Hermitian positive-definite matrices.

Eigendecompositions, general solves, singular values and the polar factor
run on the LAPACK that numpy ships (`numpy.linalg`); a LAPACK failure is
re-raised as this module's ConvergenceError or SingularMatrixError, so
callers catch one family of errors. Every Hermitian eigensolve, whatever
its size, is one batched `eigh`/`eigvalsh` call on the symmetrized stack.

Scalars are complex128 throughout, even for real inputs: the similarity and
unitary-equivalence criteria downstream need complex phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG2 = math.log(2.0)

HERMITIAN_ASYMMETRY_TOL = 1e-8


class LinAlgError(Exception):
    """Base class for numerical failures in this module."""


class NonHermitianError(LinAlgError):
    """Input matrix is too far from Hermitian to symmetrize silently."""


class ConvergenceError(LinAlgError):
    """An eigenvalue or singular value solve failed to converge."""


class PositiveDefiniteError(LinAlgError):
    """Matrix fails a positive-definiteness requirement."""


class RankDeficientError(LinAlgError):
    """Matrix is numerically rank deficient."""


class SingularMatrixError(LinAlgError):
    """Linear solve hit a negligible pivot."""


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Copy input into a C-ordered complex128 2-D array, rejecting non-finite entries."""
    arr = np.array(a, dtype=np.complex128, order="C", copy=True)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frob_norm(a: np.ndarray) -> float:
    return math.sqrt(float(np.vdot(a, a).real))


def _require_square(a: np.ndarray, name: str = "matrix") -> None:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def check_hermitian(a: np.ndarray, tol: float = HERMITIAN_ASYMMETRY_TOL) -> None:
    """Raise NonHermitian when the relative asymmetry of any stacked matrix exceeds tol."""
    scale = np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1))).ravel()
    asym = np.sqrt((np.abs(a - a.conj().swapaxes(-1, -2)) ** 2).sum(axis=(-2, -1))).ravel()
    bad = np.nonzero(asym > tol * scale)[0]
    if bad.size:
        k = bad[0]
        raise NonHermitianError(
            f"relative asymmetry {asym[k] / scale[k]:.3e} exceeds {tol:.1e}"
        )


# ---------------------------------------------------------------------------
# LAPACK calls: Hermitian eigensolves, general solves and singular values.
# ---------------------------------------------------------------------------

def herm_eig_batch(stack: np.ndarray, vectors: bool = True):
    """Eigendecompose a (m, n, n) stack of Hermitian matrices.

    Returns (eigenvalues, eigenvectors) with eigenvalues (m, n) ascending and
    eigenvectors (m, n, n) unitary columns, or (eigenvalues, None) when
    vectors=False. Row k of a stack gives the same bits as row k alone.
    """
    a = np.asarray(stack, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected (m, n, n) stack, got {a.shape}")
    a = symmetrize(a)
    try:
        if vectors:
            return np.linalg.eigh(a)
        return np.linalg.eigvalsh(a), None
    except np.linalg.LinAlgError as ex:
        raise ConvergenceError(f"Hermitian eigensolve failed: {ex}") from ex


def herm_eig(mat) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary eigenvectors of one Hermitian matrix.

    The input is symmetrized internally; inputs with relative asymmetry above
    1e-8 raise NonHermitian.
    """
    a = as_complex_matrix(mat)
    _require_square(a)
    check_hermitian(a)
    eigs, v = herm_eig_batch(a[None], vectors=True)
    return eigs[0], v[0]


def solve(mat, rhs) -> np.ndarray:
    """Solve A X = B for general square complex A."""
    a = as_complex_matrix(mat)
    _require_square(a)
    try:
        return np.linalg.solve(a, np.asarray(rhs, dtype=np.complex128))
    except np.linalg.LinAlgError as ex:
        raise SingularMatrixError(f"linear solve failed: {ex}") from ex


def inv(mat) -> np.ndarray:
    a = as_complex_matrix(mat)
    _require_square(a)
    return solve(a, np.eye(a.shape[0], dtype=np.complex128))


def _svd(a: np.ndarray, compute_uv: bool):
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as ex:
        raise ConvergenceError(f"singular value decomposition failed: {ex}") from ex


def singular_range(mat) -> tuple[float, float]:
    """(smallest, largest) of the min(rows, cols) singular values."""
    s = _svd(as_complex_matrix(mat), compute_uv=False)
    return float(s[-1]), float(s[0])


def spectral_norm(mat) -> float:
    return singular_range(mat)[1]


# ---------------------------------------------------------------------------
# Polar decomposition.
# ---------------------------------------------------------------------------

def polar_unitary(mat) -> np.ndarray:
    """Nearest unitary factor U of a full-rank square matrix (Frobenius norm).

    U = P Q* from the singular value decomposition A = P S Q*.
    """
    a = as_complex_matrix(mat)
    _require_square(a)
    p, s, qh = _svd(a, compute_uv=True)
    if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
        raise RankDeficientError(
            f"singular value ratio {s[-1] / s[0] if s[0] else 0.0:.3e} below 1e-12"
        )
    return p @ qh


# ---------------------------------------------------------------------------
# Log-scaled Hermitian positive-definite matrices.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HermPD:
    """A positive-definite matrix stored as exp(logscale) * matrix.

    The stored matrix is exactly Hermitian with spectral norm balanced into
    [1/2, 2]; the logscale absorbs Pochhammer-type growth so pencils stay
    well-conditioned out to degree 200+. Instances are immutable.
    """

    matrix: np.ndarray
    logscale: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def value(self) -> np.ndarray:
        """Represented matrix exp(logscale)*matrix; may overflow for large scales."""
        return math.exp(self.logscale) * self.matrix


def hermpd_batch(mats, logs) -> tuple[np.ndarray, np.ndarray]:
    """hermpd on every row of a (m, n, n) stack with logscales (m,), in one pass.

    Returns the read-only balanced stack and its logscales, each row
    bit-identical to hermpd(mats[k], logs[k]); raises for the first bad row.
    """
    a = np.array(mats, dtype=np.complex128, order="C", copy=True)
    out_logs = np.array(logs, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or out_logs.shape != a.shape[:1]:
        raise ValueError(f"need (m, n, n) and (m,) stacks, got {a.shape}, {out_logs.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    check_hermitian(a)
    a = symmetrize(a)
    eigs, _ = herm_eig_batch(a, vectors=False)
    lo = eigs[:, 0]
    bad = np.nonzero(lo <= 0.0)[0]
    if bad.size:
        raise PositiveDefiniteError(f"smallest eigenvalue {lo[bad[0]]:.3e} is not positive")
    snorm = np.maximum(np.abs(lo), np.abs(eigs[:, -1]))
    # math.log2 per row: a vectorised log2 may differ in the last bit and move k
    ks = np.array([round(math.log2(s)) for s in snorm.tolist()], dtype=np.int64)
    rows = np.nonzero(ks)[0]
    if rows.size:
        scales = np.array([2.0 ** (-k) for k in ks[rows].tolist()])
        a[rows] = a[rows] * scales[:, None, None]
        out_logs[rows] = out_logs[rows] + ks[rows] * LOG2
    a.flags.writeable = False
    return a, out_logs


def hermpd(matrix, logscale: float = 0.0) -> HermPD:
    """Validate, symmetrize, and balance a matrix into a HermPD.

    Balancing rescales by an exact power of two so the spectral norm lands in
    [2^-1/2, 2^1/2]; re-running it is a bit-identical no-op.
    """
    mats, logs = hermpd_batch(as_complex_matrix(matrix)[None], [logscale])
    return HermPD(mats[0], float(logs[0]))


def hermpd_from_log_diag_batch(log_rows) -> tuple[np.ndarray, np.ndarray]:
    """Balanced stack of diagonals exp(log_rows[k]), one shared logscale per row.

    Raises PositiveDefiniteError when a row's spread exceeds what a shared
    logscale can represent in double precision (690 nats).
    """
    logs = np.asarray(log_rows, dtype=np.float64)
    if logs.ndim != 2 or logs.shape[1] == 0 or not np.all(np.isfinite(logs)):
        raise ValueError("log_rows must be a finite (m, n) array")
    top = logs.max(axis=1)
    if np.any(top - logs.min(axis=1) > 690.0):
        raise PositiveDefiniteError(
            "diagonal spread exceeds double-precision range under one logscale"
        )
    m, n = logs.shape
    mats = np.zeros((m, n, n), dtype=np.complex128)
    mats[:, range(n), range(n)] = np.exp(logs - top[:, None])
    return hermpd_batch(mats, top)


def _eig_transform_batch(mats, logs, *transforms) -> tuple[np.ndarray, np.ndarray]:
    """Balanced stacks of v fn(eigs) v* per row, one for each (fn, power) of
    transforms, concatenated in that order, with the logscales multiplied by
    power; one eigensolve and one balancing pass serve them all."""
    eigs, v = herm_eig_batch(mats, vectors=True)
    lo = eigs[:, 0]
    bad = np.nonzero(lo <= 0.0)[0]
    if bad.size:
        raise PositiveDefiniteError(f"smallest eigenvalue {lo[bad[0]]:.3e} is not positive")
    vh = v.conj().swapaxes(1, 2)
    logs = np.asarray(logs, dtype=np.float64)
    return hermpd_batch(np.concatenate([(v * fn(eigs)[:, None, :]) @ vh for fn, _ in transforms]),
                        np.concatenate([power * logs for _, power in transforms]))


def inv_pd_batch(mats, logs) -> tuple[np.ndarray, np.ndarray]:
    """inv_pd of every row of a HermPD stack, in one pass."""
    return _eig_transform_batch(mats, logs, (lambda e: 1.0 / e, -1.0))


def _eig_transform(h: HermPD, fn, power: float) -> HermPD:
    mats, logs = _eig_transform_batch(h.matrix[None], [h.logscale], (fn, power))
    return HermPD(mats[0], float(logs[0]))


def sqrt_pd(h: HermPD) -> HermPD:
    """Positive square root; represented value squares back to h (logscale halved)."""
    return _eig_transform(h, np.sqrt, 0.5)


def inv_sqrt_pd(h: HermPD) -> HermPD:
    return _eig_transform(h, lambda e: 1.0 / np.sqrt(e), -0.5)


def inv_pd(h: HermPD) -> HermPD:
    return _eig_transform(h, lambda e: 1.0 / e, -1.0)


# ---------------------------------------------------------------------------
# Definite pencils.
# ---------------------------------------------------------------------------

def pencil_factors(a_mats, b_mats) -> tuple[np.ndarray, np.ndarray]:
    """Factors F and H of the pencils (A_k, B_k) of two (m, n, n) Hermitian
    PD stacks, from their eigenpairs: B = F* F with F = diag(sqrt e) V*, and
    A^{-1} = H H* with H = V~ diag(e~^{-1/2}).

    Eigenpairs factor every matrix that hermpd accepts, near-singular ones
    included. Raises PositiveDefiniteError when a matrix of either stack has
    a non-positive eigenvalue.
    """
    e, v = herm_eig_batch(b_mats)
    te, tv = herm_eig_batch(a_mats)
    if np.any(e[:, 0] <= 0.0) or np.any(te[:, 0] <= 0.0):
        raise PositiveDefiniteError("pencil matrix is not positive definite")
    return np.sqrt(e)[:, :, None] * v.conj().swapaxes(1, 2), tv / np.sqrt(te)[:, None, :]


def pencil_logrange_batch(f, h, c):
    """Per-matrix (min, max) log eigenvalues of the pencils (A_k, C* B_k C),
    and the stack K = F C H they come from.

    f, h: pencil_factors(A, B) of the stacks; c: an n x n matrix. The pencil
    at k has the eigenvalues 1/sigma^2 over the singular values sigma of
    K_k = F_k C H_k, so both (m,) arrays come from one batched SVD; logscales
    are not included. C rides along as the last matrix of that SVD for the
    invertibility test: RankDeficientError when its smallest singular value
    is not above 1e-12 times its largest, ConvergenceError when the SVD fails.
    """
    k = f @ c @ h
    s = _svd(np.concatenate([k, c[None]]), compute_uv=False)
    if not s[-1, -1] > 1e-12 * s[-1, 0]:
        raise RankDeficientError("C is numerically singular")
    return -2.0 * np.log(s[:-1, 0]), -2.0 * np.log(s[:-1, -1]), k
