"""Similarity and unitary-equivalence criteria for truncated moment systems.

The sandwich criterion: two shift tuples are similar exactly when some
invertible C and constants 0 < m1 <= m2 squeeze every Gram pair,
m1 C* G_alpha C <= G~_alpha <= m2 C* G_alpha C. This module verifies such
certificates, searches for good ones, recovers unitary intertwiners when the
families are simultaneously unitarily congruent, and cross-checks everything
against sampled solutions of the intertwining equations on small
truncations. All spectral quantities are handled in the log domain so the
criteria stay meaningful at high truncation degrees.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import Truncation, simplex_size
from .numerics import (
    ConvergenceError,
    HermPD,
    LinAlgError,
    RankDeficientError,
    _eig_transform_batch,
    _svd,
    as_complex_matrix,
    frob_norm,
    herm_eig,
    herm_eig_batch,
    inv,
    pencil_factors,
    pencil_logrange_batch,
    polar_unitary,
    singular_range,
    spectral_norm,
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
SPECTRUM_ROUNDING = 4.0  # c in the eigenvalue-list allowance c n eps lambda_max / lambda_j

VERDICT_SIMILAR = "SIMILAR_EVIDENCE"
VERDICT_NOT_SIMILAR = "NOT_SIMILAR_EVIDENCE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"


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
        raise RankDeficientError("C is numerically singular")


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
    evaluation of the search's objective (_Setup.objective), whose pencil
    kernel refuses a numerically singular C (RankDeficientError)."""
    c = as_complex_matrix(c, "C")
    lo, hi, _ = _Setup(ms, mt).objective(len(ms.truncation())).log_ranges(c)
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


class SearchStage(NamedTuple):
    """How the descent of optimize_C ended.

    exit is one of: bottomed out (the log ratio reached BOTTOM_VALUE), proven
    optimal (it is within PROVEN_RTOL of the level-zero lower bound), no
    bracket (_line_search found no step, also where its first trial's
    sufficient-decrease bound rounds to f), iteration cap, non-finite (the
    perturbed start).
    """

    exit: str
    steps: int
    evaluations: int


class SearchStart(NamedTuple):
    """One stage (a) candidate: its objective value, or, when building it
    raised a numerical error, the error's class name (value None)."""

    name: str
    value: float | None
    error: str | None = None


class SearchSummary(NamedTuple):
    """Which start optimize_C descended from, how the descent ended, the
    level-zero lower bound on the log ratio (None when the start stage
    bottomed out), and how many joint classes (rows of the reduced pair) it
    searched over; starts holds a SearchStart per start tried, in order:
    the stage stops at the first start that bottoms out or is proven
    optimal, so start_evaluations may be fewer than the five starts."""

    start: str
    start_evaluations: int
    starts: tuple
    descent: SearchStage
    bound: float | None
    classes: int


class _Eval(NamedTuple):
    """f at C, with the per-class log ranges behind it and the stack
    K = F C H whose singular values gave them."""

    c: np.ndarray
    value: float
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    k: np.ndarray | None = None


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
    (pencil_factors, in _Setup) and an evaluation is one pencil_logrange_batch
    call. f is +inf where that call raises, as at a numerically singular C.
    _Setup.objective builds it from prefixes of the setup: rows, f and h per
    class, joint (each row's class) and off (the logscale difference) per row.
    """

    def __init__(self, rows, joint, off, f, h):
        self.rows, self.f, self.h = rows, f, h
        self.lo_off = np.full(len(rows), math.inf)
        self.hi_off = np.full(len(rows), -math.inf)
        np.minimum.at(self.lo_off, joint, off)
        np.maximum.at(self.hi_off, joint, off)
        self.evaluations = 0
        self.best = _Eval(np.eye(f.shape[-1], dtype=np.complex128), math.inf)

    def log_ranges(self, c: np.ndarray) -> tuple:
        """Per-class (lo, hi) log pencil eigenvalue extremes at C and the
        stack K = F C H; raises what pencil_logrange_batch raises."""
        lo, hi, k = pencil_logrange_batch(self.f, self.h, c)
        return self.lo_off + lo, self.hi_off + hi, k

    def __call__(self, c: np.ndarray) -> _Eval:
        self.evaluations += 1
        try:
            lo, hi, k = self.log_ranges(c)
        except LinAlgError:
            return _Eval(c, math.inf)
        ev = _Eval(c, float(hi.max()) - float(lo.min()), lo, hi, k)
        if ev.value < self.best.value:
            self.best = ev
        return ev

    def bound(self, gaps: tuple) -> float:
        """The level-zero lower bound on f over every C, from the first
        classes' gaps (_Setup.gaps): each class's extreme offsets (lo_off,
        hi_off) give its largest gap."""
        return float(max(np.abs(gap[:len(self.rows)] + off).max()
                         for gap in gaps for off in (self.lo_off, self.hi_off)))


def _gradient(objective: _Objective, ev: _Eval) -> np.ndarray:
    """grad f at an evaluated C, in the 2n^2 real coordinates of C
    (interleaved real and imaginary parts, packed d/dRe + i d/dIm).

    The classes at either extreme are re-solved with vectors from the
    evaluation's own K = F C H = P S Q*: x = H Q S^{-1} is B-orthonormal
    and G C x = F* P, so the gradient of log lambda along the column x of a
    simple eigenvalue is -2 (F* P)[:, col] x*. Singular values descend, so
    lambda_max is the last column of its class and lambda_min the first.
    """
    near = np.nonzero((ev.hi >= ev.hi.max()) | (ev.lo <= ev.lo.min()))[0]
    p, s, qh = _svd(ev.k[near], compute_uv=True)

    def term(r: int, col: int) -> np.ndarray:
        # whole n x n products of the one class: a matrix-vector product
        # rounds differently from the column of a matrix product
        u = (objective.f[near[r]].conj().T @ p[r])[:, col]
        x = (objective.h[near[r]] @ qh[r].conj().T)[:, col] / s[r, col]
        return -2.0 * (u[:, None] * x.conj())

    top = int(np.argmax(objective.hi_off[near] - 2.0 * np.log(s[:, -1])))
    bottom = int(np.argmin(objective.lo_off[near] - 2.0 * np.log(s[:, 0])))
    return (term(top, -1) - term(bottom, 0)).ravel().view(np.float64)


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
    after every step; deterministic.
    """
    first = objective.evaluations
    z = rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape)
    ev = objective(c / frob_norm(c) + START_PERTURBATION * z / frob_norm(z))
    if not math.isfinite(ev.value):
        return SearchStage("non-finite", 0, objective.evaluations - first)
    grad = _gradient(objective, ev)
    hess = None
    reason, steps = "iteration cap", 0
    for steps in range(DESCENT_STEPS + 1):
        if ev.value <= BOTTOM_VALUE:
            reason = "bottomed out"
            break
        if objective.best.value - bound <= PROVEN_RTOL * max(1.0, objective.best.value):
            reason = "proven optimal"
            break
        if steps == DESCENT_STEPS:
            break
        direction = -(grad if hess is None else hess @ grad)
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
            hys = hy[:, None] * s
            hess = (hess + ((sy + float(y @ hy)) / sy ** 2) * (s[:, None] * s)
                    - (hys + hys.T) / sy)
        ev, grad = moved, moved_grad
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


def level_zero_roots(ms: MomentSystem, mt: MomentSystem) -> tuple:
    """(G_0^{-1/2}, G~_0^{1/2}, G~_0^{-1/2}) as HermPDs, from one eigensolve and
    one balancing pass over row 0 of both families (alpha = 0 has rank 0);
    each equals inv_sqrt_pd or sqrt_pd of its Gram bit for bit."""
    mats, logs = _eig_transform_batch(np.stack([x.class_mats[x.classes[0]] for x in (ms, mt)]),
                                      [ms.logs[0], mt.logs[0]], (np.sqrt, 0.5),
                                      (lambda e: 1.0 / np.sqrt(e), -0.5))
    return tuple(HermPD(mats[k], float(logs[k])) for k in (2, 1, 3))


def optimize_C(ms: MomentSystem, mt: MomentSystem, *, seed: int = 0) -> SimilarityCertificate:
    """Search for a certificate with a small log ratio.

    Stage (a) solves C* G_0 C = G~_0 exactly via C = G_0^{-1/2} W G~_0^{1/2}
    with unitary W, trying in order the identity, an eigenframe-alignment
    candidate, a unitary recovery and seeded random unitaries, each built
    only when reached. It stops at the first start after which the best
    start has bottomed out or is within PROVEN_RTOL of the level-zero lower
    bound of the pair (_Setup.gaps, _Objective.bound), computed once, after
    the first start with a finite value. Otherwise one BFGS descent (_bfgs)
    runs over all invertible C from the best start, on exact gradients: the
    gradient of log lambda at a B-normalised extreme eigenvector x of index
    alpha is -2 G_alpha C x x*. The best certificate seen anywhere is
    returned, with a SearchSummary of the search; the result is never worse
    than the stage (a) initialization; deterministic for a fixed seed.

    The search runs on one row per joint class of the pair (see
    _Objective), whose evaluations give the full lattice's constants, so the
    certificate is the best evaluation itself.
    """
    return _search(_Setup(ms, mt), len(ms.truncation()), seed)


class _Setup:
    """A pair's search setup at its top degree: the joint classes (rows, joint),
    every row's logscale offset and the pencil factors F and H of the class
    rows; the level-zero roots, the class rows transported by them (read only
    by the alignment and recovery starts, so a search that stops at the
    identity never builds them) and the level-zero gaps are built when a
    search first reads them. Its rows ascend, and every stack here is
    computed row by row, so a truncation's setup is the prefix of each
    (objective)."""

    def __init__(self, ms: MomentSystem, mt: MomentSystem):
        _require_same_shape(ms, mt)
        self.pair = ms, mt
        self.rows, self.joint = _joint_classes(ms.classes, mt.classes)
        self.off = mt.logs - ms.logs
        self.f, self.h = pencil_factors(*(x.class_mats[x.classes[self.rows]] for x in (mt, ms)))

    @functools.cached_property
    def roots(self) -> tuple:
        """level_zero_roots of the pair: (G_0^{-1/2}, G~_0^{1/2}, G~_0^{-1/2})."""
        return level_zero_roots(*self.pair)

    @functools.cached_property
    def whitened(self) -> tuple:
        """(stack, logscales) per family: its class rows transported by its
        level-zero inverse square root, which turns any exact congruence into a
        unitary one for the alignment and recovery starts. OverflowError where
        a family spans past the double-precision range."""
        out = ()
        for x, root in zip(self.pair, self.roots[::2]):
            with np.errstate(over="ignore"):
                logs = x.logs[self.rows] + 2.0 * root.logscale
            if not np.isfinite(logs).all():
                raise OverflowError("a whitened logscale is past the double-precision range")
            out += (symmetrize(_congruence_stack(x.class_mats[x.classes[self.rows]],
                                                 root.matrix)), logs)
        return out

    def objective(self, m: int) -> _Objective:
        """The objective of the pair's first m rows, with its own offsets, count
        and best C; the rows ascend, so F and H are prefixes (eigh is per row)."""
        c = int(np.searchsorted(self.rows, m))
        return _Objective(self.rows[:c], self.joint[:m], self.off[:m], self.f[:c], self.h[:c])

    @functools.cached_property
    def gaps(self) -> tuple:
        """Per class, the gaps between the pair's level-zero log extremes. Any
        sandwich puts the extreme eigenvalues of (G~_beta, G~_0) and (G_beta,
        G_0) within m2/m1 of each other, so f >= max_beta |log lambda_max(G~_beta,
        G~_0) - log lambda_max(G_beta, G_0)|, and the same with lambda_min. With
        left = G_0^{-1/2} and right = G~_0^{1/2}, the singular values of F_beta
        left and right H_beta give those eigenvalues and their reciprocals up
        to logscales (_Objective.bound adds the class offsets)."""
        left, right, _ = self.roots
        s = _svd(self.f @ left.matrix, compute_uv=False)
        t = _svd(right.matrix @ self.h, compute_uv=False)
        shift = -2.0 * (left.logscale + right.logscale)
        return (shift - 2.0 * (np.log(t[:, -1]) + np.log(s[:, 0])),
                shift - 2.0 * (np.log(t[:, 0]) + np.log(s[:, -1])))


def _search(setup: _Setup, m: int, seed: int) -> SimilarityCertificate:
    """optimize_C on the first m rows of the setup's pair."""
    objective = setup.objective(m)
    rng = np.random.default_rng(seed)
    c, n, _ = objective.f.shape  # c joint classes
    left, right, _ = setup.roots

    def starts():  # (name, unitary W or None, class of its error), each built when reached
        yield "identity", np.eye(n, dtype=np.complex128), None
        align_weights = rng.uniform(0.5, 1.5, size=c)
        for name, build, last in (("alignment", _alignment_unitary, align_weights),
                                  ("recovery", _recover_congruence_unitary, rng)):
            try:  # the whitened stacks are read, and may fail, inside each start
                yield name, build(*[a[:c] for a in setup.whitened], last), None
            except (LinAlgError, OverflowError) as ex:
                yield name, None, type(ex).__name__
        for i in range(RANDOM_STARTS):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            yield f"random{i}", polar_unitary(z), None

    # the exp(left+right logscale) gauge scalar is dropped from C: the log
    # ratio is invariant under scalar rescaling of C and the certificate
    # constants absorb it, while exp() here could overflow
    label, start_ev, tried, bound, descent = None, None, [], None, None
    for name, w, error in starts():
        if w is None:
            tried.append(SearchStart(name, None, error))
            continue
        ev = objective(left.matrix @ w @ right.matrix)
        tried.append(SearchStart(name, ev.value))
        if start_ev is None or ev.value < start_ev.value:
            label, start_ev = name, ev
        if start_ev.value <= BOTTOM_VALUE:
            descent, bound = SearchStage("bottomed out", 0, 0), None
            break
        if math.isfinite(start_ev.value):
            bound = objective.bound(setup.gaps) if bound is None else bound
            if start_ev.value - bound <= PROVEN_RTOL * max(1.0, start_ev.value):
                descent = SearchStage("proven optimal", 0, 0)
                break
    start_evaluations = objective.evaluations
    if not math.isfinite(start_ev.value):
        raise ConvergenceError("no start gives a finite log ratio")
    if descent is None:
        descent = _bfgs(objective, start_ev.c, bound, rng)
    best = objective.best
    return SimilarityCertificate(
        best.c, float(best.lo.min()), float(best.hi.max()),
        search=SearchSummary(label, start_evaluations, tuple(tried), descent, bound, c),
    )


# ---------------------------------------------------------------------------
# Growth diagnostic across truncation degrees.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthDiagnostic:
    """Optimal sandwich ratios per degree and their log-log growth slope.

    classes holds, per degree, the joint class count the search ran on,
    residuals each log ratio minus the fitted line at its degree, and starts
    and exits the start the search chose and the exit of its descent
    (SearchSummary.start, SearchStage.exit).
    """

    degrees: tuple
    log_ratios: tuple
    slope: float
    intercept: float
    r_squared: float
    verdict: str
    classes: tuple
    residuals: tuple
    starts: tuple
    exits: tuple


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


def growth_diagnostic(ms: MomentSystem, mt: MomentSystem, degrees, *, seed: int = 0,
                      threads: int = 1) -> GrowthDiagnostic:
    """Optimize a certificate at each truncation degree and fit the growth.

    The pair (ms, mt) must reach the top degree. Its search setup (_Setup) is
    built once: a lower degree's truncation is the prefix of its rows in
    graded order, so each degree's search reads prefixes of that setup.
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
    if degrees[-1] > ms.N:
        raise ValueError(f"top degree {degrees[-1]} exceeds the pair's N={ms.N}")

    setup = _Setup(ms, mt)

    def run(top_degree: int) -> SimilarityCertificate:
        return _search(setup, simplex_size(ms.d, top_degree), seed)

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
        starts=tuple(c.search.start for c in certs),
        exits=tuple(c.search.descent.exit for c in certs),
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

    @functools.cached_property
    def singular_range(self) -> tuple:
        """(sigma_min, sigma_max) of the matrix, from one SVD shared by every check."""
        return singular_range(self.matrix)


@dataclass(frozen=True, eq=False)
class ShiftPair:
    """A pair's truncated shifts and level-raising path products, built once.

    mz[j] and tmz[j] are build_mz of the source and the target, full[j] their
    dense matrices (source, target). tproducts and inv_products stack, in
    graded order, the target's products P~_alpha of raise blocks along any
    staircase from 0 to alpha and the inverses P_alpha^{-1} of the source's,
    in closed form: the products telescope to P~_alpha = T_alpha^{1/2}
    T_0^{-1/2}, so P_alpha^{-1} = G_0^{1/2} G_alpha^{-1/2}. left = G_0^{-1/2}
    and right = G~_0^{1/2} are row 0 of the same root pass: the matrices of
    level_zero_roots(ms, mt)[:2] bit for bit, and their logscales (a zero's
    sign may differ).
    """

    mz: tuple
    tmz: tuple
    full: tuple
    tproducts: np.ndarray
    inv_products: np.ndarray
    left: HermPD
    right: HermPD


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
        left=HermPD(down[0], float(down_logs[0])),
        right=HermPD(tup[0], float(tup_logs[0])),
    )


@dataclass(frozen=True, eq=False)
class IntertwinerBasis:
    """The truncated intertwining equations' solutions: every transported X[:, 0].

    Every solution X is the transport of its level-zero column block X[:, 0],
    and every X[:, 0] transports to a solution (see brute_force_intertwiner),
    so the solutions are spanned by the transports of the dim * n unit
    vectors of X[:, 0], row-major over (row level, row, column). steps[b],
    for the column level of graded rank b, holds the graded ranks of the row
    levels it fills, the target products along them and P_b^{-1}.
    """

    d: int
    N: int
    fiber_dim: int
    steps: tuple
    shifts: ShiftPair

    @property
    def dim(self) -> int:
        return self.fiber_dim * simplex_size(self.d, self.N)

    @property
    def solution_count(self) -> int:
        return self.dim * self.fiber_dim

    def transport(self, x0) -> IntertwinerMatrix:
        """The operator with level-zero column block x0 (row-major, dim * n entries)
        and every other column block transported from it."""
        n, m = self.fiber_dim, len(self.steps)
        x0 = np.asarray(x0, dtype=np.complex128).reshape(m, n, n)
        out = np.zeros((m, n, m, n), dtype=np.complex128)
        for b, (rows, q, r) in enumerate(self.steps):
            out[rows, :, b, :] = q @ x0[:len(rows)] @ r
        return IntertwinerMatrix(self.d, self.N, n, out.reshape(m * n, m * n))


def brute_force_intertwiner(ms: MomentSystem, mt: MomentSystem) -> IntertwinerBasis:
    """Solve X Mz_j = M~z_j X for all j on the truncated space, through X[:, 0].

    Only equations whose blocks are fully interior to the truncation are
    imposed (column levels of degree < N); boundary equations are dropped,
    not zero-padded. The equation at column level a and coordinate j reads
    X[:, a+e_j] B_j(a) = M~z_j X[:, a], with B_j(a) the source's invertible
    raise block. Along the canonical staircase these give every column block
    as the transport X[:, b] = M~z^b X[:, 0] P_b^{-1} of the level-zero
    block. The equations off the staircase hold for every X[:, 0]: in
    orthonormal coordinates each raise block is G_{a+e_j}^{1/2} G_a^{-1/2},
    so products of raise blocks telescope along any staircase, and both
    sides of the equation at (a, j), on row level g + a + e_j, equal
    T_{g+a+e_j}^{1/2} T_g^{-1/2} X[g, 0] G_0^{1/2} G_a^{-1/2} (T the target's
    Grams). The solutions are therefore every transport, dim * n of them.
    Desk-scale oracle: the sample checks cost dim^3, so the total dimension
    is capped; the fibre dimension is capped as part of the oracle's
    specified input range.
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
    degrees = trunc.array.sum(axis=1).tolist()
    coords, below = (p.tolist() for p in trunc.parents)
    for b in range(1, m):
        j, src = coords[b], rows[below[b]][:simplex_size(d, ms.N - degrees[b])]
        rows.append(tmz[j].dst[src])
        qs.append(tmz[j].blocks[src] @ qs[below[b]][:len(src)])
    return IntertwinerBasis(d, ms.N, n, tuple(zip(rows, qs, shifts.inv_products)), shifts)


def level0_annihilation_residual(x: IntertwinerMatrix) -> float:
    """||P_0 X restricted to positive levels|| relative to ||X||_F.

    Zero for every true intertwiner: the level-zero row kills all higher
    levels.
    """
    n = x.fiber_dim
    off = x.matrix[:n, n:]
    return frob_norm(off) / max(frob_norm(x.matrix), 1e-300)


def recursion_residual(x: IntertwinerMatrix, shifts: ShiftPair) -> float:
    """Deviation of the diagonal blocks from the shift-transport recursion.

    Every intertwiner's diagonal block at alpha equals the level-raising
    product of the target shift times the level-zero block times the inverse
    product of the source shift. Those products are read in closed form
    (ShiftPair), while the transport multiplies raise blocks along
    staircases, so the check is independent of the transport that built X.
    """
    n = x.fiber_dim
    m = len(shifts.inv_products)
    diag = x.matrix.reshape(m, n, m, n)[range(m), :, range(m), :]
    return _max_row_gap(diag, shifts.tproducts @ diag[0] @ shifts.inv_products)


def certificate_from_intertwiner(x: IntertwinerMatrix, shifts: ShiftPair) -> SimilarityCertificate:
    """The proof's certificate: C from the level-0 block of X^{-1}, m from norms.

    C (in coefficient coordinates) is G_0^{-1/2} [X^{-1}]_{00} G~_0^{1/2}, where
    [X^{-1}]_{00} = X_{00}^{-1} as X is block lower triangular in graded order;
    m1 = 1/||X^{-1}||^2 = sigma_min(X)^2 and m2 = ||X||^2 = sigma_max(X)^2,
    using operator norms of the full truncated matrices.
    """
    n = x.fiber_dim
    left, right = shifts.left, shifts.right
    c = math.exp(left.logscale + right.logscale) * (
        left.matrix @ inv(x.matrix[:n, :n]) @ right.matrix
    )
    lo, hi = x.singular_range
    return SimilarityCertificate(C=c, log_m1=2.0 * math.log(lo), log_m2=2.0 * math.log(hi))


def intertwining_residual(x: IntertwinerMatrix, shifts: ShiftPair) -> float:
    """max_j ||X Mz_j - M~z_j X|| over interior columns, scaled by ||X|| and shift norms."""
    keep = x.fiber_dim * simplex_size(x.d, x.N - 1)
    norm_x = x.singular_range[1]
    worst = 0.0
    for mz, mzt, (full, tfull) in zip(shifts.mz, shifts.tmz, shifts.full):
        lhs = x.matrix @ full[:, :keep]
        rhs = tfull @ x.matrix[:, :keep]
        scale = max(norm_x * max(mz.norm_estimate, mzt.norm_estimate), 1e-300)
        worst = max(worst, spectral_norm(lhs - rhs) / scale)
    return worst
