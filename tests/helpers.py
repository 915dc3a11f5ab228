"""Test-only constructions derived from the package's seeded systems, and four
independent references: a Cholesky/whitening pencil path for the package's
eigenpair-factored pencil kernel, the per-index shift construction for the
graded shift stacks, the per-index weight validation and per-row staircase
walk for the batched weight passes, and the per-entry matrix writer for the
one-pass JSON writers."""

import math

import numpy as np

from multishift import sampling
from multishift.lattice import enumerate_indices, simplex_size
from multishift.numerics import (
    LinAlgError,
    PositiveDefiniteError,
    frob_norm,
    herm_eig_batch,
    hermpd,
    hermpd_batch,
    inv,
    inv_sqrt_pd,
    singular_range,
    sqrt_pd,
    symmetrize,
)
from multishift.shiftcore import (
    COMMUTATION_TOL,
    WEIGHT_SINGULARITY_TOL,
    MomentSystem,
    ValidationReport,
    WeightSystem,
    canonical_weights,
)


def shifted(alpha: tuple, j: int, step: int = 1) -> tuple:
    """alpha +/- step * e_j, one tuple at a time."""
    out = list(alpha)
    out[j] += step
    return tuple(out)


def reverse_monotone_path(alpha: tuple) -> list:
    """Staircase from 0 to alpha exhausting the last coordinate first: the
    second path when checking that valid weight systems give path-independent
    products."""
    steps = []
    here = tuple(0 for _ in alpha)
    for j in range(len(alpha) - 1, -1, -1):
        for _ in range(alpha[j]):
            steps.append((here, j))
            here = shifted(here, j)
    return steps


def per_entry_matrix_to_json(mat) -> list:
    """One matrix as nested [re, im] pairs, converted entry by entry."""
    arr = np.asarray(mat, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


class CholeskyError(LinAlgError):
    """Matrix is numerically indefinite."""


def cholesky_batch(stack: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (m, n, n) Hermitian PD stack; L @ L* = A."""
    a = np.asarray(stack, dtype=np.complex128)
    m, n, _ = a.shape
    low = np.zeros_like(a)
    for j in range(n):
        d = a[:, j, j].real - (np.abs(low[:, j, :j]) ** 2).sum(axis=1)
        if np.any(d <= 0.0) or np.any(~np.isfinite(d)):
            raise CholeskyError("matrix is numerically indefinite")
        low[:, j, j] = np.sqrt(d)
        if j + 1 < n:
            # column j below the diagonal, vectorized over the batch
            s = a[:, j + 1:, j] - np.einsum(
                "mik,mk->mi", low[:, j + 1:, :j], low[:, j, :j].conj()
            )
            low[:, j + 1:, j] = s / low[:, j, j][:, None]
    return low


def solve_lower_batch(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L X = B by forward substitution for a (m, n, n) stack."""
    n = low.shape[1]
    x = np.array(rhs, dtype=np.complex128, copy=True)
    for i in range(n):
        if i:
            x[:, i, :] -= np.einsum("mk,mkj->mj", low[:, i, :i], x[:, :i, :])
        x[:, i, :] /= low[:, i, i][:, None]
    return x


def whiten_batch(low: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Congruence L^{-1} A L^{-*} for stacks, via two forward substitutions."""
    y = solve_lower_batch(low, a)
    w = solve_lower_batch(low, y.conj().swapaxes(1, 2))
    return symmetrize(w.conj().swapaxes(1, 2))


def cholesky_pencil_logrange(a_mats, a_logs, b_mats, b_logs):
    """Per-matrix (min, max) log generalized eigenvalues of the stacked
    pencils (A, B), through the Cholesky factor of B and the spectrum of
    L^{-1} A L^{-*}, logscales included."""
    eigs, _ = herm_eig_batch(whiten_batch(cholesky_batch(b_mats), a_mats), vectors=False)
    if np.any(eigs[:, 0] <= 0.0):
        raise PositiveDefiniteError("pencil numerator is not positive definite")
    off = np.asarray(a_logs, dtype=np.float64) - np.asarray(b_logs, dtype=np.float64)
    return np.log(eigs[:, 0]) + off, np.log(eigs[:, -1]) + off


def per_index_raise_blocks(ms: MomentSystem, j: int) -> dict:
    """alpha -> G_{alpha+e_j}^{1/2} G_alpha^{-1/2} for |alpha| <= N - 1, from
    one sqrt_pd and one inv_sqrt_pd call per lattice index."""
    out = {}
    for alpha in ms.truncation().interior():
        up, down = sqrt_pd(ms.gram(shifted(alpha, j))), inv_sqrt_pd(ms.gram(alpha))
        out[alpha] = math.exp(up.logscale + down.logscale) * (up.matrix @ down.matrix)
    return out


def per_index_full_matrix(ms: MomentSystem, j: int) -> np.ndarray:
    """The dense j-th shift, assembled block by block from per_index_raise_blocks."""
    trunc, n = ms.truncation(), ms.fiber_dim
    out = np.zeros((n * len(trunc), n * len(trunc)), dtype=np.complex128)
    for alpha, block in per_index_raise_blocks(ms, j).items():
        r, c = trunc.position(shifted(alpha, j)), trunc.position(alpha)
        out[r * n:(r + 1) * n, c * n:(c + 1) * n] = block
    return out


def per_index_diagonal_intertwiner(ms: MomentSystem, mt: MomentSystem, c) -> np.ndarray:
    """The dense diagonal intertwiner, level block G~_alpha^{1/2} C^{-1}
    G_alpha^{-1/2} from one root call per side and index."""
    trunc, n = ms.truncation(), ms.fiber_dim
    c_inv = inv(c)
    out = np.zeros((n * len(trunc), n * len(trunc)), dtype=np.complex128)
    for k, alpha in enumerate(trunc):
        up, down = sqrt_pd(mt.gram(alpha)), inv_sqrt_pd(ms.gram(alpha))
        out[k * n:(k + 1) * n, k * n:(k + 1) * n] = math.exp(up.logscale + down.logscale) * (
            up.matrix @ c_inv @ down.matrix)
    return out


def per_index_products(ms: MomentSystem) -> np.ndarray:
    """Graded stack of the raise-block products along the canonical staircase
    (the trailing nonzero coordinate raised last), P_0 = I."""
    blocks = [per_index_raise_blocks(ms, j) for j in range(ms.d)]
    products = {}
    for alpha in ms.truncation():
        if not any(alpha):
            products[alpha] = np.eye(ms.fiber_dim, dtype=np.complex128)
            continue
        j = max(k for k in range(ms.d) if alpha[k])
        below = shifted(alpha, j, -1)
        products[alpha] = blocks[j][below] @ products[below]
    return np.stack(list(products.values()))


def per_index_validate_weights(ws: WeightSystem) -> ValidationReport:
    """validate_weights with one singular_range call per weight and one pair
    of products per (alpha, i < j)."""
    trunc = ws.truncation()
    failures = []
    min_ratio = math.inf
    max_norm = 0.0
    for alpha in trunc.interior():
        for j in range(ws.d):
            lo, hi = singular_range(ws.weight(alpha, j))
            max_norm = max(max_norm, hi)
            ratio = lo / hi if hi > 0.0 else 0.0
            if ratio < min_ratio:
                min_ratio = ratio
            if not ratio > WEIGHT_SINGULARITY_TOL:
                failures.append(f"weight at alpha={alpha}, j={j} is numerically singular")
    max_resid = 0.0
    worst = None
    for alpha in trunc.indices[:simplex_size(ws.d, ws.N - 2)]:
        for i in range(ws.d):
            for j in range(i + 1, ws.d):
                lhs = ws.weight(shifted(alpha, j), i) @ ws.weight(alpha, j)
                rhs = ws.weight(shifted(alpha, i), j) @ ws.weight(alpha, i)
                scale = max(frob_norm(lhs), frob_norm(rhs), 1e-300)
                resid = frob_norm(lhs - rhs) / scale
                if resid > max_resid:
                    max_resid = resid
                    worst = (alpha, i, j)
    if max_resid > COMMUTATION_TOL:
        failures.append(f"commutation residual {max_resid:.3e} at alpha={worst[0]}, "
                        f"i={worst[1]}, j={worst[2]}")
    return ValidationReport(
        passes=not failures,
        max_commutation_residual=max_resid,
        min_singular_ratio=1.0 if min_ratio is math.inf else min_ratio,
        max_weight_norm=max_norm,
        failures=tuple(failures),
    )


def per_row_staircase_products(ws: WeightSystem) -> np.ndarray:
    """Graded stack of the weight products along the canonical staircase, one
    row at a time: P_0 = I, P_alpha = A^(j)_{alpha-e_j} P_{alpha-e_j} with j
    the trailing nonzero coordinate."""
    trunc = ws.truncation()
    out = np.empty((len(trunc), ws.fiber_dim, ws.fiber_dim), dtype=np.complex128)
    out[0] = np.eye(ws.fiber_dim)
    for k, alpha in enumerate(trunc.indices[1:], 1):
        j = max(i for i in range(ws.d) if alpha[i])
        below = shifted(alpha, j, -1)
        out[k] = ws.weight(below, j) @ out[trunc.position(below)]
    return out


def per_index_inverse_products(ms: MomentSystem) -> np.ndarray:
    """per_index_products(ms), each inverted with a general solve."""
    return np.stack([inv(p) for p in per_index_products(ms)])


def identity_classes(ms: MomentSystem) -> MomentSystem:
    """The same family with the identity class map: every row its own class."""
    return MomentSystem.from_arrays(ms.d, ms.N, ms.fiber_dim, ms.mats, ms.logs)


def scaled_system(ms: MomentSystem, log_factor: float) -> MomentSystem:
    """Multiply every represented Gram by exp(log_factor)."""
    return MomentSystem.from_arrays(ms.d, ms.N, ms.fiber_dim, ms.mats, ms.logs + log_factor)


def per_index_unitary(ms: MomentSystem, rng) -> MomentSystem:
    """Every Gram moved by its own random unitary: the eigenvalue lists match
    ms's, but no one unitary carries the whole family over."""
    grams = {}
    for alpha in ms.truncation():
        g = ms.gram(alpha)
        u = sampling.random_unitary(ms.fiber_dim, rng)
        grams[alpha] = hermpd(u.conj().T @ g.matrix @ u, g.logscale)
    return MomentSystem(ms.d, ms.N, ms.fiber_dim, grams)


def random_weight_system(d: int, top_degree: int, n: int, seed) -> WeightSystem:
    """A random weight system satisfying the commutation condition.

    Built as the canonical weights of a random moment system; arbitrary
    independent weights would not commute.
    """
    return canonical_weights(sampling.random_moment_system(d, top_degree, n, seed))


def normalized_to_identity(ms: MomentSystem) -> MomentSystem:
    """Congruence-transport every Gram by G_0^{-1/2}, making G_0 = I."""
    s = inv_sqrt_pd(ms.gram((0,) * ms.d))
    mats, logs = hermpd_batch(s.matrix @ ms.mats @ s.matrix, ms.logs + 2.0 * s.logscale)
    return MomentSystem.from_arrays(ms.d, ms.N, ms.fiber_dim, mats, logs)


def scalar_system(d: int, top_degree: int, n: int) -> MomentSystem:
    """G_alpha = exp(|alpha|) I: every unitary carries the family onto itself."""
    degrees = [float(sum(alpha)) for alpha in enumerate_indices(d, top_degree)]
    mats, logs = hermpd_batch(np.broadcast_to(np.eye(n), (len(degrees), n, n)), degrees)
    return MomentSystem.from_arrays(d, top_degree, n, mats, logs)


def near_singular_gram(rng):
    """The first draw U diag(1, eps) U*, eps in 1e-19..1e-15, that hermpd
    accepts and cholesky_batch rejects."""
    while True:
        eps = 10.0 ** rng.uniform(-19.0, -15.0)
        u = sampling.random_unitary(2, rng)
        try:
            gram = hermpd(u @ np.diag([1.0, eps]) @ u.conj().T)
            cholesky_batch(gram.matrix[None])
        except PositiveDefiniteError:
            continue
        except CholeskyError:
            return gram


def near_singular_pair(side: int, alpha: tuple, seed: int) -> list:
    """A random (d, N, n) = (2, 2, 2) pair whose system `side` has a
    near_singular_gram at index alpha."""
    rng = np.random.default_rng([91, side, sum(alpha), seed])
    systems = [sampling.random_moment_system(2, 2, 2, rng) for _ in range(2)]
    gram = near_singular_gram(rng)
    row = systems[side].truncation().position(alpha)
    mats, logs = np.array(systems[side].mats), np.array(systems[side].logs)
    mats[row], logs[row] = gram.matrix, gram.logscale
    systems[side] = MomentSystem.from_arrays(2, 2, 2, mats, logs)
    return systems
