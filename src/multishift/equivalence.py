"""Similarity and unitary-equivalence criteria for truncated moment systems.

The sandwich criterion: two shift tuples are similar exactly when some
invertible C and constants 0 < m1 <= m2 squeeze every Gram pair,
m1 C* G_alpha C <= G~_alpha <= m2 C* G_alpha C. This module verifies such
certificates, searches for good ones, recovers unitary intertwiners when the
families are simultaneously unitarily congruent, and cross-checks everything
against a brute-force solve of the intertwining equations on small
truncations. All spectral quantities are handled in the log domain so the
criteria stay meaningful at high truncation degrees.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import Truncation, simplex_size
from .numerics import (
    LinAlgError,
    as_complex_matrix,
    frob_norm,
    herm_eig,
    herm_eig_batch,
    inv,
    inv_sqrt_pd,
    nullspace,
    pencil_logrange_batch,
    polar_unitary,
    singular_range,
    spectral_norm,
    sqrt_pd,
    symmetrize,
)
from .shiftcore import MomentSystem, _SqrtCache, _staircase_products, build_mz

RATIO_CAP = 1e3
SLOPE_EPS = 0.1
SLOPE_FLOOR = 0.3
R2_MIN = 0.9
DEFAULT_TOL = 1e-8
INTERTWINER_DIM_CAP = 512

VERDICT_SIMILAR = "SIMILAR_EVIDENCE"
VERDICT_NOT_SIMILAR = "NOT_SIMILAR_EVIDENCE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


class SingularCError(Exception):
    """The congruence matrix C is numerically singular."""


class DimensionCapError(Exception):
    """Truncated space too large for the brute-force oracle."""


# ---------------------------------------------------------------------------
# Certificates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SimilarityCertificate:
    """A sandwich witness (C, m1, m2); the constants live in the log domain."""

    C: np.ndarray
    log_m1: float
    log_m2: float

    def __post_init__(self):
        if self.log_m1 > self.log_m2 + 1e-15:
            raise ValueError("certificate needs m1 <= m2")

    @property
    def m1(self) -> float:
        return math.exp(self.log_m1)

    @property
    def m2(self) -> float:
        return math.exp(self.log_m2)

    @property
    def log_ratio(self) -> float:
        return self.log_m2 - self.log_m1

    def swapped(self) -> "SimilarityCertificate":
        """The certificate for the role-swapped pair: (C^{-1}, 1/m2, 1/m1)."""
        return SimilarityCertificate(inv(self.C), -self.log_m2, -self.log_m1)


@dataclass(frozen=True)
class VerificationReport:
    """Positive-semidefiniteness margins of both sandwich sides.

    Margins are smallest eigenvalues normalized by the larger Frobenius norm
    of the two matrices being subtracted; the certificate verifies at
    tolerance tol when both worst margins are >= -tol.
    """

    passes: bool
    tol: float
    worst_lower_margin: float
    worst_upper_margin: float
    worst_lower_alpha: tuple
    worst_upper_alpha: tuple


def _require_same_shape(ms: MomentSystem, mt: MomentSystem) -> None:
    if not ms.same_shape(mt):
        raise ValueError(
            f"moment systems differ in shape: "
            f"({ms.d},{ms.N},{ms.fiber_dim}) vs ({mt.d},{mt.N},{mt.fiber_dim})"
        )


def _check_invertible_c(c: np.ndarray) -> None:
    lo, hi = singular_range(c)
    if hi == 0.0 or lo <= 1e-12 * hi:
        raise SingularCError("C is numerically singular")


def _congruence_stack(mats: np.ndarray, c: np.ndarray) -> np.ndarray:
    """C* G_alpha C across the stack."""
    return np.einsum("ji,ajk,kl->ail", c.conj(), mats, c, optimize=True)


def _sandwich_lograted(tmats, tlogs, bmats, blogs):
    lo, hi = pencil_logrange_batch(tmats, tlogs, bmats, blogs)
    return float(lo.min()), float(hi.max())


def sandwich_ratio(ms: MomentSystem, mt: MomentSystem, c) -> tuple:
    """Extreme pencil eigenvalues of (G~_alpha, C* G_alpha C) over the truncation.

    Returns (m1, m2, log_ratio): m1 is the global smallest generalized
    eigenvalue, m2 the largest, log_ratio = log(m2) - log(m1) >= 0. These are
    the tightest constants for which the given C is a sandwich certificate.
    """
    cert = sandwich_certificate(ms, mt, c)
    return cert.m1, cert.m2, cert.log_ratio


def sandwich_certificate(ms: MomentSystem, mt: MomentSystem, c) -> SimilarityCertificate:
    """The certificate with the tightest constants for a given C."""
    _require_same_shape(ms, mt)
    c = as_complex_matrix(c, "C")
    _check_invertible_c(c)
    log_m1, log_m2 = _sandwich_lograted(
        mt.mats, mt.logs, _congruence_stack(ms.mats, c), ms.logs
    )
    return SimilarityCertificate(c, log_m1, log_m2)


def verify_certificate(ms: MomentSystem, mt: MomentSystem,
                       cert: SimilarityCertificate,
                       tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check both sandwich inequalities in the positive-semidefinite order.

    For every alpha the report tracks the smallest (relative) eigenvalue of
    G~_alpha - m1 C* G_alpha C and of m2 C* G_alpha C - G~_alpha; the worst
    of each family is compared against -tol.
    """
    _require_same_shape(ms, mt)
    c = as_complex_matrix(cert.C, "C")
    _check_invertible_c(c)
    indices = ms.truncation().indices
    bmats = _congruence_stack(ms.mats, c)

    def worst_margin(pos_mats, pos_logs, neg_mats, neg_logs):
        top = np.maximum(pos_logs, neg_logs)
        wp = np.exp(pos_logs - top)[:, None, None]
        wn = np.exp(neg_logs - top)[:, None, None]
        diff = wp * pos_mats - wn * neg_mats
        eigs, _ = herm_eig_batch(diff, vectors=False)
        scale = np.maximum(
            np.sqrt((np.abs(wp * pos_mats) ** 2).sum(axis=(1, 2))),
            np.sqrt((np.abs(wn * neg_mats) ** 2).sum(axis=(1, 2))),
        )
        scale = np.maximum(scale, 1e-300)
        margins = eigs[:, 0] / scale
        k = int(np.argmin(margins))
        return float(margins[k]), indices[k]

    lower, lower_alpha = worst_margin(mt.mats, mt.logs, bmats, cert.log_m1 + ms.logs)
    upper, upper_alpha = worst_margin(bmats, cert.log_m2 + ms.logs, mt.mats, mt.logs)
    return VerificationReport(
        passes=bool(lower >= -tol and upper >= -tol),
        tol=tol,
        worst_lower_margin=lower,
        worst_upper_margin=upper,
        worst_lower_alpha=lower_alpha,
        worst_upper_alpha=upper_alpha,
    )


# ---------------------------------------------------------------------------
# Certificate search.
# ---------------------------------------------------------------------------

def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor core."""
    nrm = frob_norm(m)
    k = 0 if nrm <= 0.25 else max(0, math.ceil(math.log2(nrm / 0.25)))
    a = m / (2.0 ** k)
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for i in range(1, 18):
        term = term @ a / i
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def _central_diff_grad(func, mat: np.ndarray, h: float) -> tuple:
    """Gradient of func at mat over the 2n^2 real coordinates, packed complex."""
    n = mat.shape[0]
    grad = np.zeros_like(mat)
    for i in range(n):
        for j in range(n):
            for part, unit in ((0, 1.0), (1, 1.0j)):
                bump = np.zeros_like(mat)
                bump[i, j] = unit * h
                df = func(mat + bump) - func(mat - bump)
                if part == 0:
                    grad[i, j] += df / (2.0 * h)
                else:
                    grad[i, j] += 1.0j * df / (2.0 * h)
    return grad, float(np.sqrt((np.abs(grad) ** 2).sum()))


def _descend(func, start: np.ndarray, retract, iterations: int,
             h: float = 1e-6, stop_value: float = 1e-13):
    """Backtracking gradient descent with a retraction; returns (point, value).

    Deterministic; exits when the objective bottoms out, the gradient
    vanishes, backtracking finds no strict decrease, or progress stalls
    (three consecutive accepted steps with negligible improvement).
    """
    point = retract(start)
    value = func(point)
    stalled = 0
    for _ in range(iterations):
        if not math.isfinite(value) or value <= stop_value:
            break
        grad, gnorm = _central_diff_grad(lambda m: func(retract(m)), point, h)
        if gnorm <= 1e-12 * max(1.0, abs(value)):
            break
        step = 0.5 / gnorm
        improved = False
        for _ in range(30):
            trial = retract(point - step * grad)
            trial_value = func(trial)
            if trial_value < value - 1e-4 * step * gnorm * gnorm:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        if value - trial_value <= 1e-9 * max(1.0, abs(value)):
            stalled += 1
        else:
            stalled = 0
        point, value = trial, trial_value
        if stalled >= 3:
            break
    return point, value


def _combination(weights, mats, logs) -> np.ndarray:
    """sum_alpha weights[alpha] G_alpha, scaled by exp(-max logscale)."""
    w = weights * np.exp(logs - logs.max())
    return (w[:, None, None] * mats).sum(axis=0)


def _alignment_unitary(mats, logs, tmats, tlogs, weights) -> np.ndarray:
    """Match the eigenframes of matching positive combinations of both families."""
    _, q = herm_eig(_combination(weights, mats, logs))
    _, qt = herm_eig(_combination(weights, tmats, tlogs))
    return q @ qt.conj().T


def _recover_congruence_unitary(mats, logs, tmats, tlogs, rng,
                                polish_iterations: int) -> np.ndarray:
    """Best unitary V with G~_alpha ~= V* G_alpha V across the stacks.

    Eigenframes of a seeded positive combination are aligned when its
    spectrum has gaps, column phases are fixed against a second combination,
    and alternating polar iterations on the positive coupling sum polish the
    result (a monotone ascent whose fixed points include every exact V).
    Degenerate combinations fall back to polishing from the identity.
    """
    n = mats.shape[1]
    t1 = rng.uniform(0.5, 1.5, size=mats.shape[0])
    t2 = rng.uniform(0.5, 1.5, size=mats.shape[0])
    s1, st1 = _combination(t1, mats, logs), _combination(t1, tmats, tlogs)
    eig1, q = herm_eig(s1)
    _, qt = herm_eig(st1)
    span = max(float(eig1[-1] - eig1[0]), 1e-300)
    min_gap = float(np.diff(eig1).min()) / span if n > 1 else 1.0

    if min_gap >= 1e-6:
        s2, st2 = _combination(t2, mats, logs), _combination(t2, tmats, tlogs)
        a = q.conj().T @ s2 @ q
        b = qt.conj().T @ st2 @ qt
        phases = np.ones(n, dtype=np.complex128)
        ref = np.abs(a).max()
        for j in range(1, n):
            if abs(a[0, j]) > 1e-8 * ref:
                z = b[0, j] / a[0, j]
                phases[j] = z / abs(z)
        v = q @ np.diag(phases) @ qt.conj().T
    else:
        v = np.eye(n, dtype=np.complex128)

    w = t1 * np.exp((logs - logs.max()) + (tlogs - tlogs.max()))
    for _ in range(polish_iterations):
        coupling = np.einsum("a,aik,kl,alj->ij", w, mats, v, tmats, optimize=True)
        try:
            v_next = polar_unitary(coupling)
        except LinAlgError:
            break
        if frob_norm(v_next - v) <= 1e-14 * math.sqrt(n):
            v = v_next
            break
        v = v_next
    return v


def optimize_C(ms: MomentSystem, mt: MomentSystem, *, seed: int = 0,
               unitary_iterations: int = 200,
               refine_iterations: int = 200,
               random_starts: int = 2) -> SimilarityCertificate:
    """Search for a certificate with a small log ratio.

    Stage (a) solves C* G_0 C = G~_0 exactly via C = G_0^{-1/2} W G~_0^{1/2}
    with unitary W, starting from the identity, an eigenframe-alignment
    candidate, and seeded random unitaries. Stage (b) runs projected gradient
    over W (polar retraction, central differences, backtracking). Stage (c)
    refines over all invertible C with multiplicative updates C exp(eps H).
    The best certificate seen anywhere is returned, so the result is never
    worse than the stage (a) initialization; deterministic for a fixed seed.
    """
    _require_same_shape(ms, mt)
    rng = np.random.default_rng(seed)
    n = ms.fiber_dim
    mats, logs = ms.mats, ms.logs
    tmats, tlogs = mt.mats, mt.logs
    zero = (0,) * ms.d
    left = inv_sqrt_pd(ms.gram(zero))
    right = sqrt_pd(mt.gram(zero))
    right_inv = inv_sqrt_pd(mt.gram(zero))

    def c_of(w: np.ndarray) -> np.ndarray:
        # the exp(left+right logscale) gauge scalar is dropped: the log ratio
        # is invariant under scalar rescaling of C and the certificate
        # constants absorb it, while exp() here could overflow
        return left.matrix @ w @ right.matrix

    def log_ratio_of(c: np.ndarray) -> float:
        try:
            lo, hi = _sandwich_lograted(tmats, tlogs, _congruence_stack(mats, c), logs)
        except LinAlgError:
            return math.inf
        return hi - lo

    best_c = None
    best_value = math.inf

    def consider(c: np.ndarray) -> float:
        nonlocal best_c, best_value
        value = log_ratio_of(c)
        if value < best_value:
            best_value = value
            best_c = c.copy()
        return value

    # Whitening both families by their level-zero inverse square roots turns
    # any exact congruence into a unitary one, so the unitary-recovery
    # machinery hands the optimizer an (often exactly optimal) start.
    wh_mats = symmetrize(_congruence_stack(mats, left.matrix))
    wh_logs = logs + 2.0 * left.logscale
    wh_tmats = symmetrize(_congruence_stack(tmats, right_inv.matrix))
    wh_tlogs = tlogs + 2.0 * right_inv.logscale

    candidates = [np.eye(n, dtype=np.complex128)]
    align_weights = rng.uniform(0.5, 1.5, size=mats.shape[0])
    try:
        candidates.append(
            _alignment_unitary(wh_mats, wh_logs, wh_tmats, wh_tlogs, align_weights)
        )
    except LinAlgError:
        pass
    try:
        candidates.append(_recover_congruence_unitary(
            wh_mats, wh_logs, wh_tmats, wh_tlogs, rng, polish_iterations=300,
        ))
    except LinAlgError:
        pass
    for _ in range(random_starts):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        candidates.append(polar_unitary(z))

    start = candidates[0]
    start_value = math.inf
    for w in candidates:
        value = consider(c_of(w))
        if value < start_value:
            start, start_value = w, value

    _descend(
        lambda w: consider(c_of(w)), start, polar_unitary, unitary_iterations
    )

    c_start = best_c

    def c_update(h: np.ndarray) -> np.ndarray:
        return c_start @ _expm(h)

    _descend(
        lambda h: consider(c_update(h)),
        np.zeros((n, n), dtype=np.complex128),
        lambda h: h,
        refine_iterations,
    )

    return sandwich_certificate(ms, mt, best_c)


# ---------------------------------------------------------------------------
# Growth diagnostic across truncation degrees.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthDiagnostic:
    """Optimal sandwich ratios per degree and their log-log growth slope."""

    degrees: tuple
    log_ratios: tuple
    slope: float
    intercept: float
    r_squared: float
    verdict: str


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple:
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    sxy = float(((x - xm) * (y - ym)).sum())
    slope = sxy / sxx
    intercept = ym - slope * xm
    ss_res = float(((y - (intercept + slope * x)) ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r2 = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def growth_diagnostic(pair_generator, degrees, *, seed: int = 0,
                      threads: int = 1,
                      ratio_cap: float = RATIO_CAP,
                      slope_eps: float = SLOPE_EPS,
                      slope_floor: float = SLOPE_FLOOR) -> GrowthDiagnostic:
    """Optimize a certificate at each truncation degree and fit the growth.

    pair_generator(N) must return the (M, M~) pair truncated at degree N.
    A bounded optimal ratio across degrees is evidence for similarity; a
    power-law slope matching the moment asymptotics is evidence against.
    Any finite truncation admits some certificate, so the verdict is always
    evidence, never proof.
    """
    degrees = [int(x) for x in degrees]
    if len(degrees) < 4:
        raise ValueError("need at least 4 truncation degrees")
    if sorted(degrees) != degrees or len(set(degrees)) != len(degrees) or degrees[0] < 1:
        raise ValueError("degrees must be strictly ascending positive integers")

    def run(top_degree: int) -> float:
        ms, mt = pair_generator(top_degree)
        return optimize_C(ms, mt, seed=seed).log_ratio

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            ratios = list(pool.map(run, degrees))
    else:
        ratios = [run(x) for x in degrees]

    x = np.log(np.array(degrees, dtype=np.float64))
    y = np.array(ratios, dtype=np.float64)
    slope, intercept, r2 = _fit_line(x, y)
    if abs(slope) <= slope_eps and y.max() <= math.log(ratio_cap):
        verdict = VERDICT_SIMILAR
    elif slope >= slope_floor and r2 >= R2_MIN:
        verdict = VERDICT_NOT_SIMILAR
    else:
        verdict = VERDICT_INCONCLUSIVE
    return GrowthDiagnostic(
        degrees=tuple(degrees),
        log_ratios=tuple(float(v) for v in y),
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Unitary equivalence.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UnitaryEquivalenceResult:
    equivalent: bool
    V: np.ndarray | None
    residual: float
    witness: tuple | None
    message: str


def _congruence_residual(mats, logs, tmats, tlogs, v) -> float:
    """max_alpha ||G~ - V* G V|| / ||G||, balanced in the log domain."""
    conj = _congruence_stack(mats, v)
    top = np.maximum(logs, tlogs)
    w = np.exp(logs - top)[:, None, None]
    wt = np.exp(tlogs - top)[:, None, None]
    diff = wt * tmats - w * conj
    num = np.sqrt((np.abs(diff) ** 2).sum(axis=(1, 2)))
    den = np.maximum(np.sqrt((np.abs(w * mats) ** 2).sum(axis=(1, 2))), 1e-300)
    return float((num / den).max())


def test_unitary_equivalence(ms: MomentSystem, mt: MomentSystem,
                             tol: float = DEFAULT_TOL, *,
                             seed: int = 0,
                             polish_iterations: int = 500) -> UnitaryEquivalenceResult:
    """Decide simultaneous unitary congruence of the two Gram families.

    Eigenvalue lists (log domain, so scales count) are congruence invariants
    and give quick NO witnesses. Otherwise V is recovered by aligning the
    eigenframes of a seeded positive combination of each family — phases fixed
    against a second combination when the spectrum has gaps — and polished by
    alternating polar iterations on the coupling sum; YES requires the final
    congruence residual to meet tol.
    """
    _require_same_shape(ms, mt)
    indices = ms.truncation().indices
    mats, logs = ms.mats, ms.logs
    tmats, tlogs = mt.mats, mt.logs
    n = ms.fiber_dim

    eigs, _ = herm_eig_batch(mats, vectors=False)
    teigs, _ = herm_eig_batch(tmats, vectors=False)
    log_spec = np.log(eigs) + logs[:, None]
    log_tspec = np.log(teigs) + tlogs[:, None]
    gaps = np.abs(log_spec - log_tspec).max(axis=1)
    mismatched = np.nonzero(gaps > tol)[0]
    if mismatched.size:
        # first witness in graded order
        k = int(mismatched[0])
        return UnitaryEquivalenceResult(
            equivalent=False, V=None, residual=float(gaps[k]),
            witness=indices[k],
            message=(
                f"eigenvalue lists differ at alpha={indices[k]} "
                f"(log-domain gap {gaps[k]:.3e})"
            ),
        )

    rng = np.random.default_rng(seed)
    v = _recover_congruence_unitary(mats, logs, tmats, tlogs, rng, polish_iterations)
    residual = _congruence_residual(mats, logs, tmats, tlogs, v)
    if residual <= tol:
        return UnitaryEquivalenceResult(
            equivalent=True, V=v, residual=residual, witness=None,
            message=f"recovered unitary with congruence residual {residual:.3e}",
        )
    return UnitaryEquivalenceResult(
        equivalent=False, V=None, residual=residual, witness=None,
        message=(
            "eigenvalue lists match but unitary recovery stalled at "
            f"residual {residual:.3e} (optimization floor)"
        ),
    )


# ---------------------------------------------------------------------------
# Intertwiners.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IntertwinerMatrix:
    """An operator on the truncated space, blocked by lattice levels.

    The matrix is expressed in orthonormal coordinates, so operator norms are
    spectral norms and adjoints are conjugate transposes.
    """

    d: int
    N: int
    fiber_dim: int
    matrix: np.ndarray

    def truncation(self) -> Truncation:
        return Truncation(self.d, self.N)

    def block(self, row_alpha, col_alpha) -> np.ndarray:
        trunc = self.truncation()
        n = self.fiber_dim
        r = trunc.position(row_alpha)
        c = trunc.position(col_alpha)
        return self.matrix[r * n:(r + 1) * n, c * n:(c + 1) * n]

    def diag_block(self, alpha) -> np.ndarray:
        return self.block(alpha, alpha)

    def norm(self) -> float:
        return spectral_norm(self.matrix)


def diagonal_intertwiner(ms: MomentSystem, mt: MomentSystem, c) -> IntertwinerMatrix:
    """The block-diagonal map x z^alpha -> (C^{-1} x) z^alpha in orthonormal frames.

    Level block: G~_alpha^{1/2} C^{-1} G_alpha^{-1/2}. It intertwines the two
    truncated shift tuples exactly; its block singular values all lie in
    [sqrt(m1), sqrt(m2)] for the constants of sandwich_ratio with the same C.
    """
    _require_same_shape(ms, mt)
    c = as_complex_matrix(c, "C")
    _check_invertible_c(c)
    c_inv = inv(c)
    trunc = ms.truncation()
    n = ms.fiber_dim
    dim = n * len(trunc)
    out = np.zeros((dim, dim), dtype=np.complex128)
    cache, tcache = _SqrtCache(ms), _SqrtCache(mt)
    for k, alpha in enumerate(trunc.indices):
        up = tcache.sqrt(alpha)
        down = cache.inv_sqrt(alpha)
        block = math.exp(up.logscale + down.logscale) * (
            up.matrix @ c_inv @ down.matrix
        )
        out[k * n:(k + 1) * n, k * n:(k + 1) * n] = block
    return IntertwinerMatrix(ms.d, ms.N, ms.fiber_dim, out)


@dataclass(frozen=True, eq=False)
class IntertwinerBasis:
    """Orthonormal basis of the truncated intertwining equations' solutions."""

    d: int
    N: int
    fiber_dim: int
    basis: np.ndarray  # (dim^2, k), columns orthonormal in vec (Fortran) order

    @property
    def dim(self) -> int:
        return self.fiber_dim * simplex_size(self.d, self.N)

    @property
    def solution_count(self) -> int:
        return self.basis.shape[1]

    def element(self, k: int) -> IntertwinerMatrix:
        x = self.basis[:, k].reshape(self.dim, self.dim, order="F")
        return IntertwinerMatrix(self.d, self.N, self.fiber_dim, x)

    def combine(self, coeffs) -> IntertwinerMatrix:
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        x = (self.basis @ coeffs).reshape(self.dim, self.dim, order="F")
        return IntertwinerMatrix(self.d, self.N, self.fiber_dim, x)

    def membership_residual(self, x: IntertwinerMatrix) -> float:
        """Distance of X from the solution span, relative to ||X||_F."""
        v = x.matrix.flatten(order="F")
        proj = self.basis @ (self.basis.conj().T @ v)
        return float(
            math.sqrt(float(np.vdot(v - proj, v - proj).real))
            / max(math.sqrt(float(np.vdot(v, v).real)), 1e-300)
        )


def brute_force_intertwiner(ms: MomentSystem, mt: MomentSystem) -> IntertwinerBasis:
    """Solve X Mz_j = M~z_j X for all j directly on the truncated space.

    Only equations whose blocks are fully interior to the truncation are
    imposed (column levels of degree < N); boundary equations are dropped,
    not zero-padded. Desk-scale oracle: total dimension is capped at 512.
    """
    _require_same_shape(ms, mt)
    trunc = ms.truncation()
    n = ms.fiber_dim
    dim = n * len(trunc)
    if dim > INTERTWINER_DIM_CAP:
        raise DimensionCapError(f"total dimension {dim} exceeds {INTERTWINER_DIM_CAP}")
    keep = n * simplex_size(ms.d, ms.N - 1) if ms.N > 0 else 0
    eye = np.eye(dim, dtype=np.complex128)
    rows = []
    for j in range(ms.d):
        mz = build_mz(ms, j).full_matrix()
        mzt = build_mz(mt, j).full_matrix()
        # vec(X M S) - vec(M~ X S) = ((M S)^T kron I - S^T kron M~) vec(X)
        ms_sel = mz[:, :keep]
        s_sel = eye[:, :keep]
        rows.append(np.kron(ms_sel.T, eye) - np.kron(s_sel.T, mzt))
    system = np.vstack(rows) if rows else np.zeros((0, dim * dim), dtype=np.complex128)
    basis = nullspace(system)
    return IntertwinerBasis(ms.d, ms.N, ms.fiber_dim, basis)


def level0_annihilation_residual(x: IntertwinerMatrix) -> float:
    """||P_0 X restricted to positive levels|| relative to ||X||_F.

    Zero for every true intertwiner: the level-zero row kills all higher
    levels.
    """
    n = x.fiber_dim
    off = x.matrix[:n, n:]
    return frob_norm(off) / max(frob_norm(x.matrix), 1e-300)


def _oc_path_products(ms: MomentSystem) -> dict:
    """Level-raising products P(alpha) = (Mz^alpha from level 0) per index."""
    return _staircase_products(ms.truncation(), ms.fiber_dim, _SqrtCache(ms).raise_block)


def recursion_residual(x: IntertwinerMatrix, ms: MomentSystem,
                       mt: MomentSystem) -> float:
    """Deviation of the diagonal blocks from the shift-transport recursion.

    Every intertwiner's diagonal block at alpha equals the level-raising
    product of the target shift times the level-zero block times the inverse
    product of the source shift.
    """
    _require_same_shape(ms, mt)
    products = _oc_path_products(ms)
    tproducts = _oc_path_products(mt)
    x00 = x.diag_block((0,) * ms.d)
    worst = 0.0
    for alpha in ms.truncation():
        expected = tproducts[alpha] @ x00 @ inv(products[alpha])
        got = x.diag_block(alpha)
        scale = max(frob_norm(expected), frob_norm(got), 1e-300)
        worst = max(worst, frob_norm(got - expected) / scale)
    return worst


def certificate_from_intertwiner(x: IntertwinerMatrix, ms: MomentSystem,
                                 mt: MomentSystem) -> SimilarityCertificate:
    """The proof's certificate: C from the level-0 block of X^{-1}, m from norms.

    C (in coefficient coordinates) is G_0^{-1/2} [X^{-1}]_{00} G~_0^{1/2};
    the constants are m1 = 1/||X^{-1}||^2 and m2 = ||X||^2, using operator
    norms of the full truncated matrices.
    """
    _require_same_shape(ms, mt)
    n = ms.fiber_dim
    x_inv = inv(x.matrix)
    zero = (0,) * ms.d
    left = inv_sqrt_pd(ms.gram(zero))
    right = sqrt_pd(mt.gram(zero))
    c = math.exp(left.logscale + right.logscale) * (
        left.matrix @ x_inv[:n, :n] @ right.matrix
    )
    norm_x = spectral_norm(x.matrix)
    norm_x_inv = spectral_norm(x_inv)
    return SimilarityCertificate(
        C=c, log_m1=-2.0 * math.log(norm_x_inv), log_m2=2.0 * math.log(norm_x)
    )


def intertwining_residual(x: IntertwinerMatrix, ms: MomentSystem,
                          mt: MomentSystem) -> float:
    """max_j ||X Mz_j - M~z_j X|| over interior columns, scaled by ||X|| and shift norms."""
    _require_same_shape(ms, mt)
    keep = x.fiber_dim * simplex_size(ms.d, ms.N - 1) if ms.N > 0 else 0
    worst = 0.0
    for j in range(ms.d):
        mz = build_mz(ms, j)
        mzt = build_mz(mt, j)
        lhs = (x.matrix @ mz.full_matrix())[:, :keep]
        rhs = (mzt.full_matrix() @ x.matrix)[:, :keep]
        scale = max(x.norm() * max(mz.norm_estimate, mzt.norm_estimate), 1e-300)
        worst = max(worst, spectral_norm(lhs - rhs) / scale)
    return worst
