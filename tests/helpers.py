"""Test-only constructions derived from the package's seeded systems, the
functions nothing in the package calls (kept with their tests: a family's
prefix truncation, the search objective of a whole pair and a truncation's
interior indices), and eight independent references: a Cholesky/whitening
pencil path for the package's eigenpair-factored pencil kernel, the
per-index shift construction for the graded shift stacks, the per-index
weight validation and per-row staircase walk for the batched weight passes,
the per-entry matrix writer for the one-pass JSON writers, the per-entry
reader for the one-pass entry reader, the polish through polar_unitary for
the recovery start's polish on the bare SVD, the eigenpairs of every class
for the descent gradient's two columns, and the growth diagnostic that
generates its pair afresh at every degree."""

import math

import numpy as np

from multishift import equivalence as eq
from multishift import sampling
from multishift import serialization as ser
from multishift.equivalence import IntertwinerBasis, IntertwinerMatrix
from multishift.kernelgen import KernelSpec, log_factorial
from multishift.lattice import _truncation, enumerate_indices, simplex_size
from multishift.numerics import (
    HermPD,
    LinAlgError,
    PositiveDefiniteError,
    _svd,
    as_complex_matrix,
    frob_norm,
    herm_eig_batch,
    hermpd,
    hermpd_batch,
    inv,
    inv_sqrt_pd,
    pencil_factors,
    pencil_logrange_batch,
    polar_unitary,
    singular_range,
    sqrt_pd,
    symmetrize,
)
from multishift.shiftcore import (
    COMMUTATION_TOL,
    WEIGHT_SINGULARITY_TOL,
    GradedFamily,
    MomentSystem,
    ValidationReport,
    WeightSystem,
    _roots,
    _scaled,
    canonical_weights,
)


def shifted(alpha: tuple, j: int, step: int = 1) -> tuple:
    """alpha +/- step * e_j, one tuple at a time."""
    out = list(alpha)
    out[j] += step
    return tuple(out)


def interior(trunc) -> list:
    """The indices with |alpha| <= N - 1 (those whose e_j-shifts stay inside)."""
    return list(trunc)[:simplex_size(trunc.d, trunc.N - 1)]


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


def per_entry_read(entries: list, path: str, n, d: int, keys: tuple) -> tuple:
    """(mats, alphas, js, logs) of Gram, weight, kernel coefficient or
    replacement entries, read entry by entry with each field checked in
    order, as the readers did before the array pass; the first bad field
    raises its SchemaError. A coefficient or replacement matrix of another
    dimension than n (None: the first one's) is named as a Gram's is. alphas
    are tuples of Python ints, js and logs lists; None for a key not read."""
    mats, alphas, js, logs = [], [], [], []
    for i, entry in enumerate(entries):
        epath = f"{path}[{i}]"
        if "j" in keys:  # a weight
            if not isinstance(entry, dict):
                raise ser.SchemaError(epath, "expected an object")
            alphas.append(ser.multiindex_from_json(entry.get("alpha"), f"{epath}.alpha", d))
            j = entry.get("j")
            if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < d:
                raise ser.SchemaError(f"{epath}.j", f"expected an integer in 0..{d - 1}")
            js.append(j)
            if "matrix" not in entry:
                raise ser.SchemaError(f"{epath}.matrix", "missing")
            mat = ser.matrix_from_json(entry["matrix"], f"{epath}.matrix")
            if mat.shape != (n, n):
                raise ser.SchemaError(f"{epath}.matrix", f"expected shape ({n}, {n})")
            mats.append(mat)
            continue
        if "alpha" in keys:  # a Gram or a replacement
            if not isinstance(entry, dict) or "alpha" not in entry:
                raise ser.SchemaError(epath, "expected an object with 'alpha'")
            alphas.append(ser.multiindex_from_json(entry["alpha"], f"{epath}.alpha", d))
        if not isinstance(entry, dict):
            raise ser.SchemaError(epath, "expected an object with 'logscale' and 'matrix'")
        if "matrix" not in entry:
            raise ser.SchemaError(f"{epath}.matrix", "missing")
        logscale = entry.get("logscale", 0.0)
        if not ser._is_finite_real(logscale):
            raise ser.SchemaError(f"{epath}.logscale", "expected a finite real number")
        logs.append(float(logscale))
        mat = ser.matrix_from_json(entry["matrix"], f"{epath}.matrix")
        n = len(mat) if n is None else n
        if len(mat) != n:
            raise ser.SchemaError(f"{epath}.matrix", f"expected dimension {n}, got {len(mat)}")
        mats.append(mat)
    return (np.array(mats, dtype=np.complex128).reshape(len(entries), n, n),
            alphas if "alpha" in keys else None, js if "j" in keys else None,
            np.array(logs, dtype=np.float64) if "logscale" in keys else None)


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
    for alpha in interior(ms.truncation()):
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
    for alpha in interior(trunc):
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
    for alpha in list(trunc)[:simplex_size(ws.d, ws.N - 2)]:
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
    for k, alpha in enumerate(list(trunc)[1:], 1):
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


def truncated(family: GradedFamily, top_degree: int) -> GradedFamily:
    """The family on |alpha| <= top_degree, the compression of this one: its
    rows are the first C(top_degree + d, d) in graded order, so logs and
    classes are prefix views and class_mats is shared; nothing is copied or
    gathered. The reference a shared search setup's prefixes are checked
    against."""
    if not 0 <= top_degree <= family.N:
        raise ValueError(f"degree {top_degree} outside 0..{family.N}")
    m = simplex_size(family.d, top_degree)
    out = type(family).__new__(type(family))
    out.d, out.N, out.fiber_dim = family.d, top_degree, family.fiber_dim
    out._trunc = _truncation(family.d, top_degree)
    out.class_mats, out.logs, out.classes = family.class_mats, family.logs[:m], family.classes[:m]
    return out


def objective(ms: MomentSystem, mt: MomentSystem) -> eq._Objective:
    """The search objective on every row of the pair, as optimize_C builds it."""
    return eq._Setup(ms, mt).objective(len(ms.truncation()))


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


def pencil_eigenpairs(objective, ev) -> tuple:
    """(loge, x, u) of every joint class of an evaluation, from its stack
    K = F C H = P S Q*: the log pencil eigenvalues -2 log S, ascending and
    without the classes' logscale offsets, the B-orthonormal eigenvectors
    x = H Q S^{-1} (columns) and u = G C x = F* P, the quantities the
    descent gradient forms for its two extreme classes only."""
    p, s, qh = np.linalg.svd(ev.k)
    x = (objective.h @ qh.conj().swapaxes(1, 2)) / s[:, None, :]
    return -2.0 * np.log(s), x, objective.f.conj().swapaxes(1, 2) @ p


def extreme_gradients(objective, ev) -> tuple:
    """grad_C of log lambda_max and of log lambda_min at their argmax and
    argmin over every class, from pencil_eigenpairs: -2 u x* per column."""
    loge, x, u = pencil_eigenpairs(objective, ev)
    hi = int(np.argmax(objective.hi_off + loge[:, -1]))
    lo = int(np.argmin(objective.lo_off + loge[:, 0]))
    return (-2.0 * np.outer(u[hi, :, -1], x[hi, :, -1].conj()),
            -2.0 * np.outer(u[lo, :, 0], x[lo, :, 0].conj()))

def polar_polish_reference(op: np.ndarray, v: np.ndarray, steps: int) -> np.ndarray:
    """The recovery start's polish from the start v through polar_unitary,
    input copy and check included: up to steps iterations V -> the polar
    factor of op vec(V), stopping when two iterates are within 1e-14 sqrt(n)
    or polar_unitary refuses the coupling."""
    n = v.shape[0]
    for _ in range(steps):
        try:
            v_next = polar_unitary((op @ v.ravel()).reshape(n, n))
        except LinAlgError:
            break
        converged = frob_norm(v_next - v) <= 1e-14 * math.sqrt(n)
        v = v_next
        if converged:
            break
    return v


# ---------------------------------------------------------------------------
# Functions nothing in the package calls, kept here with their tests.
# ---------------------------------------------------------------------------

def logscaled(h: HermPD, dlog: float) -> HermPD:
    """The represented value of h multiplied by exp(dlog), exactly."""
    return HermPD(h.matrix, h.logscale + float(dlog))


def log_eigvals(h: HermPD) -> np.ndarray:
    """log of the represented eigenvalues of h, ascending."""
    eigs, _ = herm_eig_batch(h.matrix[None], vectors=False)
    return np.log(eigs[0]) + h.logscale


def pencil_logeigs(a: HermPD, b: HermPD) -> np.ndarray:
    """log of the generalized eigenvalues of A x = lambda B x, ascending.

    Every eigenvalue, not only the extremes: -2 log of the singular values
    of F H from pencil_factors, plus the logscale difference.
    """
    if a.dim != b.dim:
        raise ValueError(f"pencil dimension mismatch: {a.dim} vs {b.dim}")
    f, h = pencil_factors(a.matrix[None], b.matrix[None])
    s = _svd(f[0] @ h[0], compute_uv=False)
    return (a.logscale - b.logscale) - 2.0 * np.log(s)


def boundedness_estimate(spec: KernelSpec, j: int) -> float:
    """Operator-norm estimate of the j-th coordinate shift on the kernel space.

    sup over alpha of ||C_alpha^{-1/2} C_{alpha-e_j} C_alpha^{-1/2}||^{1/2},
    with C_{alpha-e_j} = 0 whenever alpha_j = 0 (so a degree-0 truncation
    reports 0). Matches the norm estimate of build_mz on the kernel's moments.
    """
    if not 0 <= j < spec.d:
        raise ValueError(f"coordinate j={j} outside 0..{spec.d - 1}")
    rows = spec.truncation().raise_map[j]
    if not len(rows):
        return 0.0
    below = np.arange(len(rows))
    _, hi, _ = pencil_logrange_batch(*pencil_factors(spec.mats[below], spec.mats[rows]),
                                     np.eye(spec.fiber_dim, dtype=np.complex128))
    return math.exp(0.5 * float((spec.logs[below] - spec.logs[rows] + hi).max()))


def diagonal_intertwiner(ms: MomentSystem, mt: MomentSystem, c) -> IntertwinerMatrix:
    """The block-diagonal map x z^alpha -> (C^{-1} x) z^alpha in orthonormal frames.

    Level block: G~_alpha^{1/2} C^{-1} G_alpha^{-1/2}, from the families'
    batched roots. It intertwines the two truncated shift tuples exactly;
    its block singular values all lie in [sqrt(m1), sqrt(m2)] for the
    constants of sandwich_ratio with the same C.
    """
    eq._require_same_shape(ms, mt)
    c = as_complex_matrix(c, "C")
    eq._check_invertible_c(c)
    _, _, down, down_logs = _roots(ms)
    up, up_logs, _, _ = _roots(mt)
    m, n = len(down), ms.fiber_dim
    out = np.zeros((m, n, m, n), dtype=np.complex128)
    out[range(m), :, range(m), :] = _scaled(up_logs + down_logs, up @ inv(c) @ down)
    return IntertwinerMatrix(ms.d, ms.N, n, out.reshape(m * n, m * n))


def diag_block(x: IntertwinerMatrix, alpha) -> np.ndarray:
    """The diagonal block of x at alpha."""
    k, n = _truncation(x.d, x.N).position(alpha), x.fiber_dim
    return x.matrix[k * n:(k + 1) * n, k * n:(k + 1) * n]


def basis_element(basis: IntertwinerBasis, k: int) -> IntertwinerMatrix:
    """The transport of the k-th unit X[:, 0], row-major over (level, row, column)."""
    unit = np.zeros(basis.solution_count, dtype=np.complex128)
    unit[k] = 1.0
    return basis.transport(unit)


def membership_residual(basis: IntertwinerBasis, x: IntertwinerMatrix) -> float:
    """||X - T(X[:, 0])||_F / ||X||_F, with T the transport: zero exactly when
    X lies in the solution span."""
    proj = basis.transport(x.matrix[:, :basis.fiber_dim]).matrix
    return frob_norm(x.matrix - proj) / max(frob_norm(x.matrix), 1e-300)


def per_degree_growth_diagnostic(pair_generator, degrees, seed: int = 0) -> eq.GrowthDiagnostic:
    """growth_diagnostic with the pair generated afresh at every degree."""
    certs = [eq.optimize_C(*pair_generator(top), seed=seed) for top in degrees]
    x = np.log(np.array(degrees, dtype=np.float64))
    y = np.array([c.log_ratio for c in certs], dtype=np.float64)
    slope, intercept, r2 = eq._fit_line(x, y)
    if abs(slope) <= eq.SLOPE_EPS and y.max() <= math.log(eq.RATIO_CAP):
        verdict = eq.VERDICT_SIMILAR
    elif slope >= eq.SLOPE_FLOOR and r2 >= eq.R2_MIN:
        verdict = eq.VERDICT_NOT_SIMILAR
    else:
        verdict = eq.VERDICT_INCONCLUSIVE
    return eq.GrowthDiagnostic(
        degrees=tuple(degrees), log_ratios=tuple(float(v) for v in y), slope=slope,
        intercept=intercept, r_squared=r2, verdict=verdict,
        classes=tuple(c.search.classes for c in certs),
        residuals=tuple(float(v) for v in y - (intercept + slope * x)),
        starts=tuple(c.search.start for c in certs),
        exits=tuple(c.search.descent.exit for c in certs))


def cumsum_graded_log_factorials(d: int, top_degree: int) -> tuple:
    """kernelgen._graded_log_factorials by one cumsum across the columns, the
    form it had: numpy's cumsum adds strictly left to right."""
    idx = _truncation(d, top_degree).array
    lf = np.array([log_factorial(m) for m in range(top_degree + 1)])
    return idx.sum(axis=1), np.cumsum(lf[idx], axis=1)[:, -1], lf
