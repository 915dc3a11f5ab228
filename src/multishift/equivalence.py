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

import contextlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import Truncation, _truncation, simplex_size
from .numerics import (
    ConvergenceError,
    HermPD,
    LinAlgError,
    _svd,
    as_complex_matrix,
    frob_norm,
    herm_eig,
    herm_eig_batch,
    inv,
    inv_sqrt_pd,
    nullspace,
    pencil_factors,
    pencil_logrange_batch,
    polar_unitary,
    singular_range,
    spectral_norm,
    sqrt_pd,
    symmetrize,
)
from .shiftcore import MomentSystem, _max_row_gap, _roots, _scaled, _shift

RATIO_CAP = 1e3
SLOPE_EPS = 0.1
SLOPE_FLOOR = 0.3
R2_MIN = 0.9
DEFAULT_TOL = 1e-8
INTERTWINER_DIM_CAP = 640
INTERTWINER_FIBRE_CAP = 24
INTERTWINER_RANK_RTOL = 1e-10
SPECTRUM_ROUNDING = 4.0  # c in the eigenvalue-list allowance c n eps lambda_max / lambda_j

VERDICT_SIMILAR = "SIMILAR_EVIDENCE"
VERDICT_NOT_SIMILAR = "NOT_SIMILAR_EVIDENCE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


class SingularCError(Exception):
    """The congruence matrix C is numerically singular."""


class DimensionCapError(Exception):
    """A dense intertwiner solve (the oracle, the unitary decision) past its cap."""


# ---------------------------------------------------------------------------
# Certificates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SimilarityCertificate:
    """A sandwich witness (C, m1, m2); the constants live in the log domain."""

    C: np.ndarray
    log_m1: float
    log_m2: float
    search: SearchSummary | None = None

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
    """The invertibility test pencil_logrange_batch applies to C."""
    lo, hi = singular_range(c)
    if not lo > 1e-12 * hi:
        raise SingularCError("C is numerically singular")


def _congruence_stack(mats: np.ndarray, c: np.ndarray) -> np.ndarray:
    """C* G_alpha C across the stack, as two pairwise contractions
    (ajk,ji->aki, then aki,kl->ail), each one BLAS product over the whole
    stack, with no contraction path to search or check per call."""
    return np.tensordot(np.tensordot(mats, c.conj(), axes=(1, 0)), c, axes=(1, 0))


def sandwich_ratio(ms: MomentSystem, mt: MomentSystem, c) -> tuple:
    """Extreme pencil eigenvalues of (G~_alpha, C* G_alpha C) over the truncation.

    Returns (m1, m2, log_ratio): m1 is the global smallest generalized
    eigenvalue, m2 the largest, log_ratio = log(m2) - log(m1) >= 0. These are
    the tightest constants for which the given C is a sandwich certificate.
    """
    cert = sandwich_certificate(ms, mt, c)
    return cert.m1, cert.m2, cert.log_ratio


def sandwich_certificate(ms: MomentSystem, mt: MomentSystem, c) -> SimilarityCertificate:
    """The certificate with the tightest constants for a given C, from one
    evaluation of the search's objective (_Objective)."""
    c = as_complex_matrix(c, "C")
    _check_invertible_c(c)
    lo, hi = _Objective(ms, mt).log_ranges(c)
    return SimilarityCertificate(c, float(lo.min()), float(hi.max()))


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
    trunc = ms.truncation()
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
        return float(margins[k]), trunc.alpha(k)

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

DESCENT_STEPS = 400  # the step cap of the descent
BOTTOM_VALUE = 1e-13  # a search whose log ratio reaches this has bottomed out
PROVEN_RTOL = 1e-12  # f - bound <= PROVEN_RTOL max(1, f) proves f optimal
RANDOM_STARTS = 2
START_PERTURBATION = 1e-4  # Frobenius norm of the seeded move off the unit start
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9
LINE_SEARCH_TRIALS = 30
STATIONARY_WINDOW = 5  # the last gradients whose convex hull is tested
STATIONARY_TOL = 1e-8
_SUBSETS = tuple((np.arange(1, 2 ** k)[:, None] >> np.arange(k)) & 1 == 1  # nonempty subsets
                 for k in range(STATIONARY_WINDOW + 1))  # of a window of k, one row each


class SearchStage(NamedTuple):
    """How the descent of optimize_C ended.

    exit is one of: bottomed out (the log ratio reached BOTTOM_VALUE), proven
    optimal (it is within PROVEN_RTOL of the level-zero lower bound),
    stationary (the convex hull of the last STATIONARY_WINDOW gradients comes
    within STATIONARY_TOL of zero), rounding floor (the unit step's
    sufficient-decrease bound rounds to f, so no step can show a decrease that
    f's rounding does not hide), no bracket (the line search found no weak
    Wolfe step), iteration cap, non-finite (the perturbed start).
    """

    exit: str
    steps: int
    evaluations: int


class SearchStart(NamedTuple):
    """One stage (a) candidate: its objective value, or, when building it
    raised a LinAlgError, the error's class name (value None)."""

    name: str
    value: float | None
    error: str | None = None


class SearchSummary(NamedTuple):
    """Which start optimize_C descended from, how the descent ended, the
    level-zero lower bound on the log ratio (None when the start bottomed
    out and it was not computed), and how many joint classes (rows of the
    reduced pair) it searched over; starts holds a SearchStart per
    candidate, in the order tried."""

    start: str
    start_evaluations: int
    starts: tuple
    descent: SearchStage
    bound: float | None
    classes: int


class _Eval(NamedTuple):
    """f at C, with the per-class log ranges behind it."""

    c: np.ndarray
    value: float
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None


class _Bundle(NamedTuple):
    """Eigenpairs at the joint classes near either extreme of an evaluated point.

    lo and hi (r, n) are log pencil eigenvalues under the class's smallest
    and largest logscale difference, x (r, n, n) B-orthonormal eigenvectors
    (columns) and u = G_alpha C x, so that the gradient of log lambda along
    an eigenvector column is -2 u x*.
    """

    lo: np.ndarray
    hi: np.ndarray
    x: np.ndarray
    u: np.ndarray


def _joint_classes(classes: np.ndarray, tclasses: np.ndarray) -> tuple:
    """(rows, joint) for the joint classes of a pair, each distinct (class,
    target class) of the two class maps: rows holds the first row of each
    class in graded order, joint each row's class, numbered in that order."""
    key = classes.astype(np.int64) * (int(tclasses.max()) + 1) + tclasses
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


class _Objective:
    """f(C) = max_alpha log lambda_max - min_alpha log lambda_min over the
    pencils (G~_alpha, C* G_alpha C); every call counts and the best C is kept.

    The rows of a joint class (_joint_classes) share both matrices bit for
    bit, so their pencils differ only by the logscale difference; each class
    keeps its smallest (lo_off) and largest (hi_off) one and is solved once
    at its first row (rows). As fl(a + x) is monotone in a, lo.min() and
    hi.max() over the classes equal the full lattice's bit for bit. Both
    stacks are fixed for the whole search, so they are factored once
    (pencil_factors) and an evaluation is one pencil_logrange_batch call.
    f is +inf where that call raises, as at a numerically singular C.
    """

    def __init__(self, ms: MomentSystem, mt: MomentSystem):
        _require_same_shape(ms, mt)
        self.rows, joint = _joint_classes(ms.classes, mt.classes)
        off = mt.logs - ms.logs
        self.lo_off = np.full(len(self.rows), math.inf)
        self.hi_off = np.full(len(self.rows), -math.inf)
        np.minimum.at(self.lo_off, joint, off)
        np.maximum.at(self.hi_off, joint, off)
        self.f, self.h = pencil_factors(mt.mats[self.rows], ms.mats[self.rows])
        self.evaluations = 0
        self.best = _Eval(np.eye(ms.fiber_dim, dtype=np.complex128), math.inf)

    def log_ranges(self, c: np.ndarray) -> tuple:
        """Per-class (lo, hi) log pencil eigenvalue extremes at C; raises
        what pencil_logrange_batch raises."""
        lo, hi = pencil_logrange_batch(self.f, self.h, c)
        return self.lo_off + lo, self.hi_off + hi

    def __call__(self, c: np.ndarray) -> _Eval:
        self.evaluations += 1
        try:
            lo, hi = self.log_ranges(c)
        except LinAlgError:
            return _Eval(c, math.inf)
        ev = _Eval(c, float(hi.max()) - float(lo.min()), lo, hi)
        if ev.value < self.best.value:
            self.best = ev
        return ev

    def bundle(self, ev: _Eval, eps: float) -> _Bundle:
        """Re-solve, with eigenvectors, the classes within eps of an extreme.

        With K = F C H = P S Q*, x = H Q S^{-1} is B-orthonormal and
        G C x = F* P; singular values descend, so the eigenvalues come out
        ascending.
        """
        top, bottom = ev.hi.max(), ev.lo.min()
        near = np.nonzero((ev.hi >= top - eps) | (ev.lo <= bottom + eps))[0]
        f, h = self.f[near], self.h[near]
        p, s, qh = _svd(f @ ev.c @ h, compute_uv=True)
        loge = -2.0 * np.log(s)
        lo = self.lo_off[near][:, None] + loge
        hi = self.hi_off[near][:, None] + loge
        x = (h @ qh.conj().swapaxes(1, 2)) / s[:, None, :]
        return _Bundle(lo, hi, x, f.conj().swapaxes(1, 2) @ p)

    def level_zero_bound(self, left: HermPD, right: HermPD) -> float:
        """A lower bound on f over every C: any sandwich puts the extreme
        eigenvalues of (G~_beta, G~_0) and (G_beta, G_0) within m2/m1 of each
        other, so f >= max_beta |log lambda_max(G~_beta, G~_0) - log
        lambda_max(G_beta, G_0)|, and the same with lambda_min. With left =
        G_0^{-1/2} and right = G~_0^{1/2}, the singular values of F_beta left
        and right H_beta give those eigenvalues and their reciprocals up to
        logscales; each class's extreme offsets (lo_off, hi_off) give its
        largest gap."""
        s = _svd(self.f @ left.matrix, compute_uv=False)
        t = _svd(right.matrix @ self.h, compute_uv=False)
        shift = -2.0 * (left.logscale + right.logscale)
        top = shift - 2.0 * (np.log(t[:, -1]) + np.log(s[:, 0]))
        bottom = shift - 2.0 * (np.log(t[:, 0]) + np.log(s[:, -1]))
        return float(max(np.abs(gap + off).max()
                         for gap in (top, bottom) for off in (self.lo_off, self.hi_off)))


def _extreme_gradients(b: _Bundle) -> tuple:
    """grad_C of log lambda_max and of log lambda_min at their argmax and argmin."""
    hi = int(np.argmax(b.hi[:, -1]))
    lo = int(np.argmin(b.lo[:, 0]))
    return (-2.0 * np.outer(b.u[hi, :, -1], b.x[hi, :, -1].conj()),
            -2.0 * np.outer(b.u[lo, :, 0], b.x[lo, :, 0].conj()))


def _gradient(objective: _Objective, ev: _Eval) -> np.ndarray:
    """grad f at an evaluated C, in the 2n^2 real coordinates of C
    (interleaved real and imaginary parts, packed d/dRe + i d/dIm)."""
    grad_max, grad_min = _extreme_gradients(objective.bundle(ev, 0.0))
    return (grad_max - grad_min).ravel().view(np.float64)


def _hull_min_norm(grads: np.ndarray) -> tuple:
    """(squared norm, point) of the hull's min-norm point, by an exact QP: it is
    the affine min-norm point, with nonnegative weights, of an affinely
    independent set of rows (Caratheodory), so the KKT systems of all nonempty
    sets are solved in one batch (rows outside a set get weight 0), or, if a
    dependent set makes the batch singular, one at a time, skipping those."""
    k = len(grads)
    sets, rhs = _SUBSETS[k], np.eye(k + 1)[:, k:]
    kkt = np.zeros((len(sets), k + 1, k + 1))
    kkt[:, :k, :k] = np.where(sets[:, :, None] & sets[:, None, :], grads @ grads.T, np.eye(k))
    kkt[:, :k, k] = kkt[:, k, :k] = sets
    try:
        weights = np.linalg.solve(kkt, rhs)[:, :k, 0]
    except np.linalg.LinAlgError:
        solved = []
        for system in kkt:
            with contextlib.suppress(np.linalg.LinAlgError):
                solved.append(np.linalg.solve(system, rhs)[:k, 0])
        weights = np.array(solved)
    x = weights[(weights >= 0.0).all(axis=1)] @ grads
    norms = (x * x).sum(axis=1)
    return float(norms.min()), x[np.argmin(norms)]


def _stationary(grads: np.ndarray, witness: np.ndarray | None = None) -> tuple:
    """(stationary, witness): whether the convex hull of the rows of grads
    comes within STATIONARY_TOL of zero, and the direction to try first next
    time. A d with g.d > (STATIONARY_TOL + 2 m u |grads|_F) |d| for every row
    g proves NO: 2 m u, u = 2^-53, bounds the rounding of a length-m dot
    product (gamma_m, Higham 2002, ch. 3), and |grads|_F >= max |g|. The
    witness, then the row sum, are tried; else the QP (_hull_min_norm)
    decides, and its point, separating on any NO, is the next witness."""
    slack = STATIONARY_TOL + grads.shape[1] * 2.0 ** -52 * math.sqrt(float(np.vdot(grads, grads)))
    for d in (witness, grads.sum(axis=0)):
        if d is not None and float((grads @ d).min()) > slack * math.sqrt(float(d @ d)):
            return False, d
    norm2, x = _hull_min_norm(grads)
    return norm2 <= STATIONARY_TOL ** 2, x


def _line_search(objective: _Objective, ev: _Eval, grad: np.ndarray,
                 direction: np.ndarray):
    """Weak Wolfe step along direction from ev, by bracketing: doubling
    until a trial fails the sufficient decrease, then bisection. Returns
    (evaluation, gradient) of the step found, or None. A trial is evaluated
    only while its sufficient-decrease bound ev.value + WOLFE_C1 t slope is
    below ev.value, so every step found lowers f: at slope >= 0, or where
    the bound rounds to ev.value, a trial equal to ev would pass both Wolfe
    tests, and BFGS would keep taking steps that make no progress."""
    slope = float(grad @ direction)
    x = ev.c.ravel().view(np.float64)
    lo, hi, t = 0.0, math.inf, 1.0
    for _ in range(LINE_SEARCH_TRIALS):
        bound = ev.value + WOLFE_C1 * t * slope
        if not bound < ev.value:
            return None
        trial = objective((x + t * direction).view(np.complex128).reshape(ev.c.shape))
        if not trial.value <= bound:
            hi = t
        else:
            trial_grad = _gradient(objective, trial)
            if float(trial_grad @ direction) >= WOLFE_C2 * slope:
                return trial, trial_grad
            lo = t
        t = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
    return None


def _bfgs(objective: _Objective, c: np.ndarray, bound: float, rng) -> SearchStage:
    """BFGS over the 2n^2 real coordinates of C from the start c, normalised
    to unit Frobenius norm and moved by a seeded START_PERTURBATION (without
    that move the n-fold kink stage (a) leaves at alpha = 0 stalls BFGS).

    f is a max-eigenvalue function, nonsmooth where extremes tie; BFGS with
    a weak Wolfe line search still converges on it (Lewis and Overton 2013).
    The inverse Hessian starts as s'y / y'y times the identity at the first
    update (s'y <= 0 skips it). SearchStage's exits are checked in order
    after every step, _stationary from the last call's witness, and the
    rounding floor before the line search evaluates anything; deterministic.
    """
    first = objective.evaluations
    z = rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape)
    ev = objective(c / frob_norm(c) + START_PERTURBATION * z / frob_norm(z))
    if not math.isfinite(ev.value):
        return SearchStage("non-finite", 0, objective.evaluations - first)
    grad = _gradient(objective, ev)
    grads, witness = [grad], None
    hess = None
    reason, steps = "iteration cap", 0
    for steps in range(DESCENT_STEPS + 1):
        if ev.value <= BOTTOM_VALUE:
            reason = "bottomed out"
            break
        if objective.best.value - bound <= PROVEN_RTOL * max(1.0, objective.best.value):
            reason = "proven optimal"
            break
        stationary, witness = _stationary(np.array(grads[-STATIONARY_WINDOW:]), witness)
        if stationary:
            reason = "stationary"
            break
        if steps == DESCENT_STEPS:
            break
        direction = -(grad if hess is None else hess @ grad)
        if ev.value + WOLFE_C1 * float(grad @ direction) == ev.value:
            reason = "rounding floor"
            break
        found = _line_search(objective, ev, grad, direction)
        if found is None:
            reason = "no bracket"
            break
        moved, moved_grad = found
        s = moved.c.ravel().view(np.float64) - ev.c.ravel().view(np.float64)
        y = moved_grad - grad
        sy = float(s @ y)
        if sy > 0.0:
            if hess is None:
                hess = (sy / float(y @ y)) * np.eye(s.size)
            hy = hess @ y
            hess = (hess + ((sy + float(y @ hy)) / sy ** 2) * np.outer(s, s)
                    - (np.outer(hy, s) + np.outer(s, hy)) / sy)
        ev, grad = moved, moved_grad
        grads.append(grad)
    return SearchStage(reason, steps, objective.evaluations - first)


_EXP_FLOOR = -746.0  # exp() of this or less is 0 in double precision


def _log_offsets(logs: np.ndarray) -> np.ndarray:
    """logs - max(logs), clamped at _EXP_FLOOR where exp() already gives 0.

    The subtraction runs only above the floor, so logscales that span past
    the float range cannot overflow it; every exp() of the result is the
    exp() of the plain difference.
    """
    top = logs.max()
    return np.subtract(logs, top, out=np.full_like(logs, _EXP_FLOOR),
                       where=logs >= top + _EXP_FLOOR)


def _combination(weights, mats, logs) -> np.ndarray:
    """sum_alpha weights[alpha] G_alpha, scaled by exp(-max logscale)."""
    w = weights * np.exp(_log_offsets(logs))
    return (w[:, None, None] * mats).sum(axis=0)


def _alignment_unitary(mats, logs, tmats, tlogs, weights) -> np.ndarray:
    """Match the eigenframes of matching positive combinations of both families."""
    _, q = herm_eig(_combination(weights, mats, logs))
    _, qt = herm_eig(_combination(weights, tmats, tlogs))
    return q @ qt.conj().T


RECOVERY_POLISH_STEPS = 300  # polar iterations of optimize_C's recovery start


def _polish_operator(w, mats, tmats) -> np.ndarray:
    """The map V -> sum_alpha w_alpha G_alpha V G~_alpha as an (n^2, n^2)
    matrix on row-major vec(V); it holds n^4 complex entries."""
    n = mats.shape[1]
    # tensordot gives (i, k, l, j); the operator is indexed (i, j), (k, l)
    op = np.tensordot(w[:, None, None] * mats, tmats, axes=(0, 0))
    return op.transpose(0, 3, 1, 2).reshape(n * n, n * n)


def _recover_congruence_unitary(mats, logs, tmats, tlogs, rng) -> np.ndarray:
    """optimize_C's recovery start: a unitary V with G~_alpha ~= V* G_alpha V.

    Eigenframes of a seeded positive combination are aligned when its
    spectrum has gaps (else V starts at the identity), column phases are
    fixed against a second combination, and up to RECOVERY_POLISH_STEPS
    alternating polar iterations on the positive coupling sum (its operator
    built once) polish the result, until two iterates are within 1e-14
    sqrt(n) or the coupling sum has no polar factor.
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
                if z != 0:
                    phases[j] = z / abs(z)
        v = q @ np.diag(phases) @ qt.conj().T
    else:
        v = np.eye(n, dtype=np.complex128)

    # both offsets are clamped, so their sum cannot overflow either
    w = t1 * np.exp(_log_offsets(logs) + _log_offsets(tlogs))
    op = _polish_operator(w, mats, tmats)
    for _ in range(RECOVERY_POLISH_STEPS):
        # no input check: [0, 1.5] weights, balanced Grams and a unitary V (each phase
        # is 1 or z / |z| with z != 0, the iterates polar factors) keep the coupling finite
        try:
            p, s, qh = _svd((op @ v.ravel()).reshape(n, n), compute_uv=True)
        except LinAlgError:
            break
        if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
            break
        v_next = p @ qh
        converged = frob_norm(v_next - v) <= 1e-14 * math.sqrt(n)
        v = v_next
        if converged:
            break
    return v


def optimize_C(ms: MomentSystem, mt: MomentSystem, *, seed: int = 0) -> SimilarityCertificate:
    """Search for a certificate with a small log ratio.

    Stage (a) solves C* G_0 C = G~_0 exactly via C = G_0^{-1/2} W G~_0^{1/2}
    with unitary W, starting from the identity, an eigenframe-alignment
    candidate, a unitary recovery and seeded random unitaries. Unless the
    best start has bottomed out, the level-zero lower bound of the pair
    (_Objective.level_zero_bound) is computed once, and a start within
    PROVEN_RTOL of it is returned as proven optimal. Otherwise one BFGS
    descent (_bfgs) runs over all invertible C from the best start, on
    exact gradients: the gradient of log lambda at a B-normalised extreme
    eigenvector x of index alpha is -2 G_alpha C x x*. The best certificate
    seen anywhere is returned, with a SearchSummary of the search; the result
    is never worse than the stage (a) initialization; deterministic for a
    fixed seed.

    The search runs on one row per joint class of the pair (see
    _Objective), whose evaluations give the full lattice's constants, so the
    certificate is the best evaluation itself.
    """
    objective = _Objective(ms, mt)
    rng = np.random.default_rng(seed)
    n = ms.fiber_dim
    rows = objective.rows
    mats, logs = ms.mats[rows], ms.logs[rows]
    tmats, tlogs = mt.mats[rows], mt.logs[rows]
    zero = (0,) * ms.d
    left = inv_sqrt_pd(ms.gram(zero))
    right = sqrt_pd(mt.gram(zero))
    right_inv = inv_sqrt_pd(mt.gram(zero))

    # Transporting both families by their level-zero inverse square roots
    # turns any exact congruence into a unitary one, so the unitary-recovery
    # machinery hands the optimizer an (often exactly optimal) start.
    wh_mats = symmetrize(_congruence_stack(mats, left.matrix))
    wh_logs = logs + 2.0 * left.logscale
    wh_tmats = symmetrize(_congruence_stack(tmats, right_inv.matrix))
    wh_tlogs = tlogs + 2.0 * right_inv.logscale

    # (name, unitary W or None, class of the LinAlgError that stopped it)
    candidates = [("identity", np.eye(n, dtype=np.complex128), None)]
    align_weights = rng.uniform(0.5, 1.5, size=mats.shape[0])
    try:
        candidates.append(("alignment", _alignment_unitary(
            wh_mats, wh_logs, wh_tmats, wh_tlogs, align_weights,
        ), None))
    except LinAlgError as ex:
        candidates.append(("alignment", None, type(ex).__name__))
    try:
        candidates.append(("recovery", _recover_congruence_unitary(
            wh_mats, wh_logs, wh_tmats, wh_tlogs, rng), None))
    except LinAlgError as ex:
        candidates.append(("recovery", None, type(ex).__name__))
    for i in range(RANDOM_STARTS):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        candidates.append((f"random{i}", polar_unitary(z), None))

    # the exp(left+right logscale) gauge scalar is dropped from C: the log
    # ratio is invariant under scalar rescaling of C and the certificate
    # constants absorb it, while exp() here could overflow
    label, start_ev, tried = None, None, []
    for name, w, error in candidates:
        if w is None:
            tried.append(SearchStart(name, None, error))
            continue
        ev = objective(left.matrix @ w @ right.matrix)
        tried.append(SearchStart(name, ev.value))
        if start_ev is None or ev.value < start_ev.value:
            label, start_ev = name, ev
    start_evaluations = objective.evaluations
    if not math.isfinite(start_ev.value):
        raise ConvergenceError("no start gives a finite log ratio")

    bound = None
    if start_ev.value <= BOTTOM_VALUE:
        descent = SearchStage("bottomed out", 0, 0)
    else:
        bound = objective.level_zero_bound(left, right)
        if start_ev.value - bound <= PROVEN_RTOL * max(1.0, start_ev.value):
            descent = SearchStage("proven optimal", 0, 0)
        else:
            descent = _bfgs(objective, start_ev.c, bound, rng)
    best = objective.best
    return SimilarityCertificate(
        best.c, float(best.lo.min()), float(best.hi.max()),
        search=SearchSummary(label, start_evaluations, tuple(tried), descent, bound,
                             len(rows)),
    )


# ---------------------------------------------------------------------------
# Growth diagnostic across truncation degrees.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthDiagnostic:
    """Optimal sandwich ratios per degree and their log-log growth slope.

    classes holds, per degree, the joint class count the search ran on, and
    residuals each log ratio minus the fitted line at its degree.
    """

    degrees: tuple
    log_ratios: tuple
    slope: float
    intercept: float
    r_squared: float
    verdict: str
    classes: tuple
    residuals: tuple


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
                      threads: int = 1) -> GrowthDiagnostic:
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

    def run(top_degree: int) -> SimilarityCertificate:
        ms, mt = pair_generator(top_degree)
        return optimize_C(ms, mt, seed=seed)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only the pool needs it
        with ThreadPoolExecutor(max_workers=threads) as pool:
            certs = list(pool.map(run, degrees))
    else:
        certs = [run(x) for x in degrees]

    x = np.log(np.array(degrees, dtype=np.float64))
    y = np.array([c.log_ratio for c in certs], dtype=np.float64)
    slope, intercept, r2 = _fit_line(x, y)
    if abs(slope) <= SLOPE_EPS and y.max() <= math.log(RATIO_CAP):
        verdict = VERDICT_SIMILAR
    elif slope >= SLOPE_FLOOR and r2 >= R2_MIN:
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
        classes=tuple(c.search.classes for c in certs),
        residuals=tuple(float(v) for v in y - (intercept + slope * x)),
    )


# ---------------------------------------------------------------------------
# Unitary equivalence.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UnitaryEquivalenceResult:
    """residual is V's congruence residual, the witness's log gap, or with no
    candidate V residual_bound; the last two fields are None when an
    invariant decides, and a NO is proven when residual_bound > tol."""

    equivalent: bool
    V: np.ndarray | None
    residual: float
    witness: tuple | None
    message: str
    # the congruence invariant behind the witness: "spectrum" or "trace"
    witness_invariant: str | None = None
    residual_bound: float | None = None
    null_dimension: int | None = None


def _balanced_rows(mats, logs, tmats, tlogs) -> tuple:
    """Stacks X, Y with X = G / ||G||_F and Y = G~ / ||G||_F per index, found in
    the log domain; a unitary V's residual at alpha is ||X V - V Y||_F."""
    top = np.maximum(logs, tlogs)
    w, wt = np.exp(logs - top), np.exp(tlogs - top)
    den = np.maximum(w * np.sqrt((np.abs(mats) ** 2).sum(axis=(1, 2))), 1e-300)
    return (w / den)[:, None, None] * mats, (wt / den)[:, None, None] * tmats


def _intertwiner_gram(x, y, rows, cols) -> np.ndarray:
    """sum_alpha A_alpha^H A_alpha, A_alpha: W -> X_alpha W - W Y_alpha, on the
    coordinates W[rows, cols]; on all of them, sum X^2 (x) I + I (x) (Y^2)^T - 2 X (x) Y^T."""
    x2, y2 = (np.tensordot(z, z, axes=([0, 2], [0, 1])) for z in (x, y))  # sum X^2, sum Y^2
    # per coordinate p, U_p[k, l] = sum_alpha X[rows p, k] Y[l, cols p]: s n^2 entries
    u = x[:, rows, :].transpose(1, 2, 0) @ y[:, :, cols].transpose(2, 0, 1)
    return (x2[np.ix_(rows, rows)] * (cols[:, None] == cols) - 2.0 * u[:, rows, cols]
            + (rows[:, None] == rows) * y2[np.ix_(cols, cols)].T)


def _level_zero_log_traces(mats) -> np.ndarray:
    """log tr(A_0 A_beta) for every beta of a balanced stack; NaN where the
    rounded trace is not positive, so that index decides nothing."""
    traces = np.einsum("ij,bji->b", mats[0], mats).real
    return np.log(traces, out=np.full(traces.shape, np.nan), where=traces > 0)


def _invariant_witness(gaps, mismatched, trunc: Truncation, invariant: str,
                       what: str) -> UnitaryEquivalenceResult | None:
    """The NO whose witness is the first index in graded order marked in
    mismatched, reporting its log-domain gap, or None when none is marked."""
    mismatched = np.nonzero(mismatched)[0]
    if not mismatched.size:
        return None
    k = int(mismatched[0])
    alpha = trunc.alpha(k)
    return UnitaryEquivalenceResult(
        equivalent=False, V=None, residual=float(gaps[k]), witness=alpha,
        message=f"{what} differ at alpha={alpha} (log-domain gap {gaps[k]:.3e})",
        witness_invariant=invariant,
    )


def test_unitary_equivalence(ms: MomentSystem, mt: MomentSystem,
                             tol: float = DEFAULT_TOL, *,
                             seed: int = 0) -> UnitaryEquivalenceResult:
    """Decide simultaneous unitary congruence of the two Gram families.

    Two congruence invariants give quick NO witnesses, both in the log
    domain so scales count: the eigenvalue list of each G_alpha, then the
    level-zero traces tr(G_0 G_beta) (tr(V* G_0 V V* G_beta V) = tr(G_0 G_beta)
    for unitary V). The witness is the first index in graded order whose gap
    exceeds tol; each log eigenvalue's allowance is widened by its rounding
    term, SPECTRUM_ROUNDING n eps lambda_max / lambda_j on each side, since
    a computed eigenvalue of an n x n matrix is off by about n eps lambda_max.

    When both match, the intertwining rows (_balanced_rows) on the blocks of
    the eigenframes of a seeded combination decide (the README's unitary
    paragraph derives the bound): no unitary has a largest residual
    below residual_bound, so a NO with residual_bound > tol is proven. The
    null_dimension eigenvectors of L on the blocks with lambda <= (m / n)
    tol^2 + delta span the near-intertwiners there; the polar factor of a
    seeded combination of them, turned so that tr V > 0, is the candidate,
    and YES needs its residual to meet tol.
    """
    _require_same_shape(ms, mt)
    trunc = ms.truncation()
    mats, logs = ms.mats, ms.logs
    tmats, tlogs = mt.mats, mt.logs

    eigs, _ = herm_eig_batch(mats, vectors=False)
    teigs, _ = herm_eig_batch(tmats, vectors=False)
    gaps = np.abs((np.log(eigs) + logs[:, None]) - (np.log(teigs) + tlogs[:, None]))
    allowance = tol + SPECTRUM_ROUNDING * ms.fiber_dim * np.finfo(np.float64).eps * (
        eigs[:, -1:] / eigs + teigs[:, -1:] / teigs)
    witness = _invariant_witness(gaps.max(axis=1), (gaps > allowance).any(axis=1),
                                 trunc, "spectrum", "eigenvalue lists")
    if witness is not None:
        return witness
    # a sum of differences: the logscales themselves may reach +-1e308, but
    # matching spectra bound each l_alpha - l~_alpha
    gaps = np.abs(_level_zero_log_traces(mats) - _level_zero_log_traces(tmats)
                  + (logs[0] - tlogs[0]) + (logs - tlogs))
    witness = _invariant_witness(gaps, gaps > tol, trunc, "trace",
                                 "level-zero traces tr(G_0 G_alpha)")
    if witness is not None:
        return witness

    n, m = ms.fiber_dim, len(trunc)
    x, y = _balanced_rows(mats, logs, tmats, tlogs)
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(m)
    lams, (q, qt) = herm_eig_batch(np.tensordot(t / frob_norm(t), np.stack([x, y], 1), 1))
    eps = np.finfo(np.float64).eps
    eta = SPECTRUM_ROUNDING * n * eps * math.sqrt(n) * float(np.abs(lams).max(axis=1).sum())
    root_k = float(np.linalg.norm(np.linalg.norm(x, axis=(1, 2)) + np.linalg.norm(y, axis=(1, 2))))
    ordered = np.sort(lams, axis=None)
    starts = ordered[1:][np.diff(ordered) > math.sqrt(m) * tol + eta]  # a V meeting tol spans less
    cluster = np.searchsorted(starts, lams, side="right")
    blocks = cluster[0][:, None] == cluster[1]  # the pairs (i, j) in one cluster
    if (size := int(blocks.sum())) > INTERTWINER_FIBRE_CAP ** 2:
        raise DimensionCapError(f"{size} intertwiner unknowns exceed {INTERTWINER_FIBRE_CAP ** 2}")
    gap = float(np.abs(lams[0][:, None] - lams[1])[~blocks].min(initial=math.inf))
    mu, vecs = (r[0] for r in herm_eig_batch(_intertwiner_gram(
        _congruence_stack(x, q), _congruence_stack(y, qt), *np.nonzero(blocks))[None]))
    mu = np.maximum(mu - 2.0 * SPECTRUM_ROUNDING * n * n * eps * m, 0.0)
    null = int(np.count_nonzero(mu <= (m / n) * tol ** 2))  # near-intertwiners on the blocks
    least = float(mu[0]) if mu.size else 0.0
    touched = min(blocks.any(axis=1).sum(), blocks.any(axis=0).sum())
    off = gap * math.sqrt(n - touched) if touched < n else 0.0
    on = math.sqrt(least * n) / math.hypot(1.0 + root_k / gap, math.sqrt(least) / gap)
    bound = max(max(on, off) - eta, 0.0) / math.sqrt(m)
    v, residual = None, bound
    if null and bound <= tol:
        z = rng.standard_normal((2, null))
        w = np.zeros((n, n), dtype=np.complex128)
        w[blocks] = vecs[:, :null] @ (z[0] + 1j * z[1])
        p, _, qh = _svd(q @ w @ qt.conj().T, compute_uv=True)
        v = p @ qh
        v *= abs(trace) / trace if (trace := np.trace(v)) else 1.0  # identical: V = I
        residual = float(np.linalg.norm(y - _congruence_stack(x, v), axis=(1, 2)).max())
    if v is not None and residual <= tol:
        message = f"recovered unitary with congruence residual {residual:.3e}"
    else:
        v, proof = None, "proven" if bound > tol else "unproven"
        message = (f"no unitary within tol: null space dimension {null}, residual "
                   f"{residual:.3e}, residual_bound {bound:.3e} ({proof} NO)")
    return UnitaryEquivalenceResult(v is not None, v, residual, None, message,
                                    residual_bound=bound, null_dimension=null)


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
        return _truncation(self.d, self.N)

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
    _, _, down, down_logs = _roots(ms)
    up, up_logs, _, _ = _roots(mt)
    m, n = len(down), ms.fiber_dim
    out = np.zeros((m, n, m, n), dtype=np.complex128)
    out[range(m), :, range(m), :] = _scaled(up_logs + down_logs, up @ c_inv @ down)
    return IntertwinerMatrix(ms.d, ms.N, n, out.reshape(m * n, m * n))


@dataclass(frozen=True, eq=False)
class ShiftPair:
    """A pair's truncated shifts and level-raising path products, built once.

    mz[j] and tmz[j] are build_mz of the source and the target, full[j] their
    dense matrices (source, target). tproducts and inv_products stack, in
    graded order, the target's products P~_alpha of raise blocks along any
    staircase from 0 to alpha and the inverses P_alpha^{-1} of the source's,
    in closed form: the products telescope to P~_alpha = T_alpha^{1/2}
    T_0^{-1/2}, so P_alpha^{-1} = G_0^{1/2} G_alpha^{-1/2}.
    """

    mz: tuple
    tmz: tuple
    full: tuple
    tproducts: np.ndarray
    inv_products: np.ndarray


def shift_pair(ms: MomentSystem, mt: MomentSystem) -> ShiftPair:
    """Build the shifts and path products of (ms, mt) once, for the oracle and its checks."""
    _require_same_shape(ms, mt)
    roots, troots = _roots(ms), _roots(mt)
    mz = tuple(_shift(ms, roots, j) for j in range(ms.d))
    tmz = tuple(_shift(mt, troots, j) for j in range(mt.d))
    up, up_logs, down, down_logs = roots
    tup, tup_logs, tdown, tdown_logs = troots
    return ShiftPair(
        mz=mz,
        tmz=tmz,
        full=tuple((a.full_matrix(), b.full_matrix()) for a, b in zip(mz, tmz)),
        tproducts=_scaled(tup_logs + tdown_logs[0], tup @ tdown[0]),
        inv_products=_scaled(up_logs[0] + down_logs, up[0] @ down),
    )


@dataclass(frozen=True, eq=False)
class IntertwinerBasis:
    """Orthonormal basis of the truncated intertwining equations' solutions.

    Every solution X is the transport of its level-zero column block X[:, 0]
    (see brute_force_intertwiner), and the equations on X[:, 0] split by row
    level g, so the basis is kept per row level: vectors[g] (n^2, n^2) holds
    orthonormal row-major vec(X[g, 0]) columns, and the columns marked in
    null[g] span that level's solutions; the solution span is their direct
    sum, basis elements ordered by level, then by column. steps[b], for the
    column level of graded rank b, holds the graded ranks of the row levels
    it fills, the target products along them and P_b^{-1}.
    """

    d: int
    N: int
    fiber_dim: int
    vectors: np.ndarray
    null: np.ndarray
    steps: tuple
    shifts: ShiftPair
    rank_threshold: float
    null_singular_value: float  # the largest singular value counted as zero

    @property
    def dim(self) -> int:
        return self.fiber_dim * simplex_size(self.d, self.N)

    @property
    def solution_count(self) -> int:
        return int(np.count_nonzero(self.null))

    def transport(self, x0) -> IntertwinerMatrix:
        """The operator with level-zero column block x0 (row-major, dim * n entries)
        and every other column block transported from it."""
        n, m = self.fiber_dim, len(self.steps)
        x0 = np.asarray(x0, dtype=np.complex128).reshape(m, n, n)
        out = np.zeros((m, n, m, n), dtype=np.complex128)
        for b, (rows, q, r) in enumerate(self.steps):
            out[rows, :, b, :] = q @ x0[:len(rows)] @ r
        return IntertwinerMatrix(self.d, self.N, n, out.reshape(m * n, m * n))

    def element(self, k: int) -> IntertwinerMatrix:
        unit = np.zeros(self.solution_count, dtype=np.complex128)
        unit[k] = 1.0
        return self.combine(unit)

    def combine(self, coeffs) -> IntertwinerMatrix:
        full = np.zeros(self.null.shape, dtype=np.complex128)
        full[self.null] = coeffs
        return self.transport(np.einsum("gij,gj->gi", self.vectors, full))

    def membership_residual(self, x: IntertwinerMatrix) -> float:
        """||X - T(P X[:, 0])||_F / ||X||_F, with P the projection onto the span
        and T the transport: zero exactly when X lies in the solution span."""
        v = x.matrix[:, :self.fiber_dim].reshape(self.null.shape)
        coeffs = np.einsum("gji,gj->gi", self.vectors.conj(), v) * self.null
        proj = self.transport(np.einsum("gij,gj->gi", self.vectors, coeffs)).matrix
        return frob_norm(x.matrix - proj) / max(frob_norm(x.matrix), 1e-300)


def _kron_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Matrices of x -> L_g x R on row-major vec(x), one per L_g of the stack."""
    k, n, _ = left.shape
    return np.einsum("gab,dc->gacbd", left, right).reshape(k, n * n, n * n)


def brute_force_intertwiner(ms: MomentSystem, mt: MomentSystem) -> IntertwinerBasis:
    """Solve X Mz_j = M~z_j X for all j on the truncated space, through X[:, 0].

    Only equations whose blocks are fully interior to the truncation are
    imposed (column levels of degree < N); boundary equations are dropped,
    not zero-padded. The equation at column level b and coordinate j reads
    X[:, b+e_j] B_j(b) = M~z_j X[:, b], with B_j(b) the source's invertible
    raise block. Along the canonical staircase these give every column block
    as the transport X[:, b] = M~z^b X[:, 0] P_b^{-1} of the level-zero
    block; the other interior equations become linear constraints on X[:, 0].
    Row level g of X[:, 0] reaches only the row levels g + b, so the
    constraints split into one system in n^2 unknowns per row level, solved
    by one batched economy SVD per degree of g (a single stack would pad
    every level to the most constrained one). A singular value counts as zero
    at or below INTERTWINER_RANK_RTOL times the largest constraint term (a
    transport then a shift block), not times the largest singular value:
    for moment-derived pairs every constraint vanishes up to rounding.
    Desk-scale oracle: the sample checks cost dim^3 and each level's solve
    n^6, so the total and the fibre dimension are capped.
    """
    _require_same_shape(ms, mt)
    trunc = ms.truncation()
    d, n, m = ms.d, ms.fiber_dim, len(trunc)
    if n * m > INTERTWINER_DIM_CAP:
        raise DimensionCapError(f"total dimension {n * m} exceeds {INTERTWINER_DIM_CAP}")
    if n > INTERTWINER_FIBRE_CAP:
        raise DimensionCapError(f"fibre dimension {n} exceeds {INTERTWINER_FIBRE_CAP}")
    shifts = shift_pair(ms, mt)
    tmz = shifts.tmz
    # rows[b]: graded ranks of the levels g + beta, |g| <= N - |beta|, in the
    # order of g; qs[b]: the target's products from level g to g + beta.
    rows = [np.arange(m)]
    qs = [np.broadcast_to(np.eye(n, dtype=np.complex128), (m, n, n))]
    # suffix[:, j] = alpha_j + ... + alpha_{d-1}: column 0 is the degree
    suffix = np.cumsum(trunc.array[:, ::-1], axis=1)[:, ::-1]
    degrees = suffix[:, 0].tolist()
    coords, below = (p.tolist() for p in trunc.parents)
    for b in range(1, m):
        j, src = coords[b], rows[below[b]][:simplex_size(d, ms.N - degrees[b])]
        rows.append(tmz[j].dst[src])
        qs.append(tmz[j].blocks[src] @ qs[below[b]][:len(src)])

    # Each equation off the staircase, at row level g + alpha + e_j, reads
    # L1 X[g, 0] R1 = L2 X[g, 0] R2 for |g| < N - |alpha|; degree-sorted.
    inv_p = shifts.inv_products
    terms = []
    scale = 0.0
    # the interior (a, j) with a nonzero coordinate of alpha after j, alpha-major
    for a, j in np.argwhere(suffix[:simplex_size(d, ms.N - 1), 1:] > 0).tolist():
        b = tmz[j].dst[a]
        term = (qs[b], inv_p[b] @ shifts.mz[j].blocks[a],
                tmz[j].blocks[rows[a][:len(rows[b])]] @ qs[a][:len(rows[b])], inv_p[a])
        terms.append((degrees[a], term))
        for left, right in (term[:2], term[2:]):  # ||L x R||_F <= ||L||_F ||R||_F ||x||
            scale = max(scale, float(np.linalg.norm(left, axis=(1, 2)).max())
                        * frob_norm(right))
    threshold = INTERTWINER_RANK_RTOL * scale
    vectors, null, largest = [], [], 0.0
    for g in range(ms.N + 1):
        lo, hi = simplex_size(d, g - 1), simplex_size(d, g)
        live = [t for deg, t in terms if deg < ms.N - g]
        system = np.zeros((hi - lo, len(live), n * n, n * n), dtype=np.complex128)
        for e, (l1, r1, l2, r2) in enumerate(live):
            system[:, e] = _kron_rows(l1[lo:hi], r1) - _kron_rows(l2[lo:hi], r2)
        v, z, sv = nullspace(system.reshape(hi - lo, -1, n * n), atol=threshold)
        vectors.append(v)
        null.append(z)
        largest = max(largest, sv)
    return IntertwinerBasis(d, ms.N, n, np.concatenate(vectors), np.concatenate(null),
                            tuple(zip(rows, qs, inv_p)), shifts, threshold, largest)


def level0_annihilation_residual(x: IntertwinerMatrix) -> float:
    """||P_0 X restricted to positive levels|| relative to ||X||_F.

    Zero for every true intertwiner: the level-zero row kills all higher
    levels.
    """
    n = x.fiber_dim
    off = x.matrix[:n, n:]
    return frob_norm(off) / max(frob_norm(x.matrix), 1e-300)


def recursion_residual(x: IntertwinerMatrix, ms: MomentSystem, mt: MomentSystem,
                       shifts: ShiftPair | None = None) -> float:
    """Deviation of the diagonal blocks from the shift-transport recursion.

    Every intertwiner's diagonal block at alpha equals the level-raising
    product of the target shift times the level-zero block times the inverse
    product of the source shift. Those products are read in closed form
    (ShiftPair), while the transport multiplies raise blocks along
    staircases, so the check is independent of the transport that built X.
    shifts, when given, is shift_pair(ms, mt).
    """
    _require_same_shape(ms, mt)
    shifts = shifts if shifts is not None else shift_pair(ms, mt)
    n = x.fiber_dim
    m = len(shifts.inv_products)
    diag = x.matrix.reshape(m, n, m, n)[range(m), :, range(m), :]
    return _max_row_gap(diag, shifts.tproducts @ diag[0] @ shifts.inv_products)


def certificate_from_intertwiner(x: IntertwinerMatrix, ms: MomentSystem,
                                 mt: MomentSystem,
                                 x_range: tuple | None = None) -> SimilarityCertificate:
    """The proof's certificate: C from the level-0 block of X^{-1}, m from norms.

    C (in coefficient coordinates) is G_0^{-1/2} [X^{-1}]_{00} G~_0^{1/2};
    the constants are m1 = 1/||X^{-1}||^2 = sigma_min(X)^2 and
    m2 = ||X||^2 = sigma_max(X)^2, using operator norms of the full truncated
    matrices. x_range, when given, is singular_range(x.matrix).
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
    lo, hi = x_range if x_range is not None else singular_range(x.matrix)
    return SimilarityCertificate(C=c, log_m1=2.0 * math.log(lo), log_m2=2.0 * math.log(hi))


def intertwining_residual(x: IntertwinerMatrix, ms: MomentSystem, mt: MomentSystem,
                          shifts: ShiftPair | None = None,
                          x_range: tuple | None = None) -> float:
    """max_j ||X Mz_j - M~z_j X|| over interior columns, scaled by ||X|| and shift norms.

    shifts, when given, is shift_pair(ms, mt); x_range, when given, is
    singular_range(x.matrix).
    """
    _require_same_shape(ms, mt)
    shifts = shifts if shifts is not None else shift_pair(ms, mt)
    keep = x.fiber_dim * simplex_size(ms.d, ms.N - 1)
    norm_x = x_range[1] if x_range is not None else x.norm()
    worst = 0.0
    for mz, mzt, (full, tfull) in zip(shifts.mz, shifts.tmz, shifts.full):
        lhs = x.matrix @ full[:, :keep]
        rhs = tfull @ x.matrix[:, :keep]
        scale = max(norm_x * max(mz.norm_estimate, mzt.norm_estimate), 1e-300)
        worst = max(worst, spectral_norm(lhs - rhs) / scale)
    return worst
