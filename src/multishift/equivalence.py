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
from typing import NamedTuple

import numpy as np

from .lattice import Truncation, _truncation, degree, shifted, simplex_size
from .numerics import (
    ConvergenceError,
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
    solve,
    sqrt_pd,
    symmetrize,
)
from .shiftcore import MomentSystem, _SqrtCache, _staircase_products, build_mz

RATIO_CAP = 1e3
SLOPE_EPS = 0.1
SLOPE_FLOOR = 0.3
R2_MIN = 0.9
DEFAULT_TOL = 1e-8
INTERTWINER_DIM_CAP = 640
INTERTWINER_FIBRE_CAP = 24
INTERTWINER_RANK_RTOL = 1e-10

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


# Eigenvalues within eps (nats) of an extreme count as active; the descent
# tries the rungs in order and falls to the next when a direction fails.
EPS_LADDER = (1e-3, 1e-6, 1e-9)
MIN_NORM_ROUNDS = 30
DESCENT_STEPS = 200  # the step cap of each descent stage
BOTTOM_VALUE = 1e-13  # a stage whose log ratio reaches this has bottomed out
RANDOM_STARTS = 2
MIN_NORM_GAP = 1e-3
BACKTRACKS = 30


class SearchStage(NamedTuple):
    """How one descent stage of optimize_C ended.

    exit is one of: bottomed out (the log ratio reached BOTTOM_VALUE), flat
    (no rung of the eps-ladder gives a nonzero descent direction), no
    decrease (every rung's line search failed), stalled (three steps in a row
    with negligible gain), iteration cap, non-finite (the start value).
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
    """Which start optimize_C descended from, how its two stages ended, and
    how many joint classes (rows of the reduced pair) it searched over;
    starts holds a SearchStart per candidate, in the order tried."""

    start: str
    start_evaluations: int
    starts: tuple
    unitary: SearchStage
    refine: SearchStage
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
    top: float
    bottom: float


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
        if near.size == ev.hi.size:
            near = slice(None)  # all tied: views, not copies of the stacks
        f, h = self.f[near], self.h[near]
        p, s, qh = _svd(f @ ev.c @ h, compute_uv=True)
        loge = -2.0 * np.log(s)
        lo = self.lo_off[near][:, None] + loge
        hi = self.hi_off[near][:, None] + loge
        x = (h @ qh.conj().swapaxes(1, 2)) / s[:, None, :]
        return _Bundle(lo, hi, x, f.conj().swapaxes(1, 2) @ p, float(hi[:, -1].max()),
                       float(lo[:, 0].min()))


def _extreme_gradients(b: _Bundle) -> tuple:
    """grad_C of log lambda_max and of log lambda_min at their argmax and argmin."""
    hi = int(np.argmax(b.hi[:, -1]))
    lo = int(np.argmin(b.lo[:, 0]))
    return (-2.0 * np.outer(b.u[hi, :, -1], b.x[hi, :, -1].conj()),
            -2.0 * np.outer(b.u[lo, :, 0], b.x[lo, :, 0].conj()))


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


class _Side:
    """The eps-active clusters on one side (lambda_max or lambda_min) of a bundle.

    A cluster of active eigenvalues at one index, with B-orthonormal
    eigenvectors X, contributes the whole set {-2 G C X Y X* : Y >= 0,
    tr Y = 1}, not only its basis vectors. The linear oracle over it is the
    bottom eigenvector of a small Hermitian matrix, linear in the adjoint
    image h of the current element. Single-eigenvalue clusters are rows of
    one coefficient matrix, so the oracle over all of them is one product;
    wider ones are padded so that no inactive column wins.
    """

    def __init__(self, b: _Bundle, mask: np.ndarray, sign: float):
        n = mask.shape[1]
        k = mask.sum(axis=1)
        rows, cols = np.nonzero(mask & (k == 1)[:, None])
        wide = np.nonzero(k > 1)[0]
        self.n, self.sign = n, sign
        self.u1, self.x1 = b.u[rows, :, cols], b.x[rows, :, cols]
        # sign * v* M v at v = e_col is coef1 . vec(h); elementwise products,
        # since threaded BLAS calls on these small operands cost more than they do
        self.coef1 = (-2.0 * sign) * (
            self.u1.conj()[:, :, None] * self.x1[:, None, :]).reshape(rows.size, n * n)
        self.uw, self.xw, self.maskw = b.u[wide], b.x[wide], mask[wide]
        # (U* h X)[w, i, j] is coefw . vec(h)
        self.coefw = (self.uw.conj().swapaxes(1, 2)[:, :, None, :, None]
                      * self.xw.swapaxes(1, 2)[:, None, :, None, :]).reshape(-1, n * n)

    def vertex(self, h: np.ndarray) -> tuple:
        """(u, x) of the atom minimising sign * Re<h, -2 u x*> over the side."""
        hv = h.ravel()
        best, u, x = math.inf, None, None
        if self.u1.size:
            vals = (self.coef1 * hv).sum(axis=1).real
            i = int(np.argmin(vals))
            best, u, x = float(vals[i]), self.u1[i], self.x1[i]
        if self.uw.size:
            n = self.n
            p = (self.coefw * hv).sum(axis=1).reshape(-1, n, n)
            m = -self.sign * (p + p.conj().swapaxes(1, 2))
            pad = 1.0 + 2.0 * float(np.abs(m).max())
            m = np.where(self.maskw[:, :, None] & self.maskw[:, None, :], m, 0.0)
            m[:, range(n), range(n)] += np.where(self.maskw, 0.0, pad)
            eigs, vecs = herm_eig_batch(m)
            i = int(np.argmin(eigs[:, 0]))
            if eigs[i, 0] < best:
                v = vecs[i, :, 0]
                u, x = self.uw[i] @ v, self.xw[i] @ v
        return u, x


def _active(b: _Bundle, eps: float) -> tuple:
    """Masks (r, n) of the eigenvalues within eps of the top and of the bottom."""
    return b.hi >= b.top - eps, b.lo <= b.bottom + eps


def _min_norm_point(first: np.ndarray, vertex) -> np.ndarray:
    """Wolfe's minimum-norm-point algorithm over a convex set given by its
    linear oracle: vertex(x) minimises Re<x, s> over the set.

    The corral of oracle points is kept affinely minimal; each round adds one
    point and re-solves the small affine min-norm system, dropping points
    whose weight would turn negative. Stops when x is optimal to
    MIN_NORM_GAP relative (the Frank-Wolfe gap), after MIN_NORM_ROUNDS
    rounds, or when the corral system is singular.
    """
    atoms, weights, x = [first], np.ones(1), first
    for _ in range(MIN_NORM_ROUNDS):
        s = vertex(x)
        if _inner(x, x - s) <= MIN_NORM_GAP * _inner(x, x):
            break
        atoms.append(s)
        weights = np.append(weights, 0.0)
        gram = np.array([[_inner(a, b) for b in atoms] for a in atoms])
        while True:
            k = len(atoms)
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k], kkt[k, k] = gram, 0.0
            try:
                mu = solve(kkt, np.eye(k + 1)[k]).real[:k]
            except LinAlgError:
                return x
            if np.all(mu > 0.0):
                weights = mu
                break
            neg = mu <= 0.0
            theta = float(np.min(weights[neg] / np.maximum(weights[neg] - mu[neg], 1e-300)))
            weights = (1.0 - theta) * weights + theta * mu
            keep = weights > 1e-15
            atoms = [a for a, kept in zip(atoms, keep) if kept]
            weights, gram = weights[keep], gram[keep][:, keep]
        x = sum(w * a for w, a in zip(weights, atoms))
    return x


def _min_norm_element(b: _Bundle, masks: tuple, stage, point) -> np.ndarray:
    """Min-norm element of conv(active lambda_max gradients) - conv(active
    lambda_min gradients), in the stage's coordinates at point."""
    top, bottom = _Side(b, masks[0], 1.0), _Side(b, masks[1], -1.0)

    def atom(u, x):
        return stage.tangent(point, -2.0 * np.outer(u, x.conj()))

    def vertex(g):
        h = stage.adjoint(point, g)
        return atom(*top.vertex(h)) - atom(*bottom.vertex(h))

    grad_max, grad_min = _extreme_gradients(b)
    first = stage.tangent(point, grad_max) - stage.tangent(point, grad_min)
    return _min_norm_point(first, vertex)


class _UnitaryStage:
    """Stage (b): C = left W right over unitary W, polar retraction."""

    def __init__(self, left: np.ndarray, right: np.ndarray):
        self.left, self.right = left, right

    def c_of(self, w):
        return self.left @ w @ self.right

    def tangent(self, w, grad_c):
        # W skew(W* grad_W) with grad_W = left* grad_C right*
        z = self.left @ grad_c @ self.right
        return 0.5 * (z - w @ z.conj().T @ w)

    def adjoint(self, w, g):
        return self.left @ g @ self.right

    def move(self, w, direction, step):
        return polar_unitary(w + step * direction)


class _RefineStage:
    """Stage (c): all invertible C, re-centred at every step, C exp(step D)."""

    def c_of(self, c):
        return c

    def tangent(self, c, grad_c):
        return c.conj().T @ grad_c

    def adjoint(self, c, g):
        return c @ g

    def move(self, c, direction, step):
        return c @ _expm(step * direction)


def _line_search(objective: _Objective, stage, point, ev: _Eval, g: np.ndarray,
                 gnorm: float, travel: float):
    """Backtrack along -g from a first move of length travel; returns the
    (point, evaluation, move length) of the first sufficient decrease, or None."""
    step = travel / gnorm
    for _ in range(BACKTRACKS):
        moved = stage.move(point, -g, step)
        moved_ev = objective(stage.c_of(moved))
        if moved_ev.value < ev.value - 1e-4 * step * gnorm * gnorm:
            return moved, moved_ev, step * gnorm
        step *= 0.5
    return None


def _descend(objective: _Objective, stage, point, ev: _Eval) -> SearchStage:
    """Bundle descent from point, whose evaluation is ev.

    Each step re-solves the near-extreme indices once for eigenvectors and
    walks down EPS_LADDER: a rung whose min-norm element is zero, or whose
    line search finds no sufficient decrease, hands over to the next. The
    first trial move doubles the previous accepted one. Deterministic.
    """
    first = objective.evaluations
    travel, stalled, steps = 0.5, 0, 0
    reason = "iteration cap"
    for _ in range(DESCENT_STEPS):
        if not math.isfinite(ev.value):
            reason = "non-finite"
            break
        if ev.value <= BOTTOM_VALUE:
            reason = "bottomed out"
            break
        bundle = objective.bundle(ev, EPS_LADDER[0])
        trial, flat, seen = None, True, None
        for eps in EPS_LADDER:
            masks = _active(bundle, min(eps, 0.25 * ev.value))
            key = tuple(m.tobytes() for m in masks)
            if key == seen:
                continue
            seen = key
            g = _min_norm_element(bundle, masks, stage, point)
            gnorm = math.sqrt(_inner(g, g))
            if gnorm <= 1e-12 * max(1.0, ev.value):
                continue
            flat = False
            trial = _line_search(objective, stage, point, ev, g, gnorm, travel)
            if trial is not None:
                break
        if trial is None:
            reason = "flat" if flat else "no decrease"
            break
        gain = ev.value - trial[1].value
        point, ev, travel = trial[0], trial[1], 2.0 * trial[2]
        steps += 1
        stalled = stalled + 1 if gain <= 1e-9 * max(1.0, ev.value) else 0
        if stalled >= 3:
            reason = "stalled"
            break
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


class PolishSummary(NamedTuple):
    """How the polish of a unitary recovery ended.

    exit is one of: converged (two iterates within 1e-14 sqrt(n) in the
    Frobenius norm), iteration cap, rank-deficient coupling (the coupling
    sum has no polar factor; the last iterate is kept). iterations counts the
    couplings formed, one polar factor each.
    """

    exit: str
    iterations: int


def _polish_operator(w, mats, tmats) -> np.ndarray:
    """The map V -> sum_alpha w_alpha G_alpha V G~_alpha as an (n^2, n^2)
    matrix on row-major vec(V); it holds n^4 complex entries."""
    n = mats.shape[1]
    # tensordot gives (i, k, l, j); the operator is indexed (i, j), (k, l)
    op = np.tensordot(w[:, None, None] * mats, tmats, axes=(0, 0))
    return op.transpose(0, 3, 1, 2).reshape(n * n, n * n)


def _recover_congruence_unitary(mats, logs, tmats, tlogs, rng,
                                polish_iterations: int) -> tuple:
    """Best unitary V with G~_alpha ~= V* G_alpha V across the stacks, and
    the PolishSummary of its polish.

    Eigenframes of a seeded positive combination are aligned when its
    spectrum has gaps, column phases are fixed against a second combination,
    and alternating polar iterations on the positive coupling sum polish the
    result (a monotone ascent whose fixed points include every exact V).
    The coupling is linear in V, so its operator is built once and each
    iteration is one product and one polar factor. Degenerate combinations
    fall back to polishing from the identity.
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

    # both offsets are clamped, so their sum cannot overflow either
    w = t1 * np.exp(_log_offsets(logs) + _log_offsets(tlogs))
    op = _polish_operator(w, mats, tmats)
    reason, iterations = "iteration cap", 0
    for iterations in range(1, polish_iterations + 1):
        try:
            v_next = polar_unitary((op @ v.ravel()).reshape(n, n))
        except LinAlgError:
            reason = "rank-deficient coupling"
            break
        if frob_norm(v_next - v) <= 1e-14 * math.sqrt(n):
            v, reason = v_next, "converged"
            break
        v = v_next
    return v, PolishSummary(reason, iterations)


def optimize_C(ms: MomentSystem, mt: MomentSystem, *, seed: int = 0) -> SimilarityCertificate:
    """Search for a certificate with a small log ratio.

    Stage (a) solves C* G_0 C = G~_0 exactly via C = G_0^{-1/2} W G~_0^{1/2}
    with unitary W, starting from the identity, an eigenframe-alignment
    candidate, and seeded random unitaries. Stage (b) descends over W with
    Riemannian bundle subgradients and polar retraction. Stage (c) refines
    over all invertible C with multiplicative updates C exp(-s C* grad_C),
    re-centred at every step. Subgradients are exact: the gradient of
    log lambda at a B-normalised extreme eigenvector x of index alpha is
    -2 G_alpha C x x*, and near-ties are handled by min-norm elements of
    eps-active bundles (see _descend). The best certificate seen anywhere is
    returned, with a SearchSummary of the search; the result is never worse
    than the stage (a) initialization; deterministic for a fixed seed.

    Every stage runs on one row per joint class of the pair (see
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
    # the exp(left+right logscale) gauge scalar is dropped from C: the log
    # ratio is invariant under scalar rescaling of C and the certificate
    # constants absorb it, while exp() here could overflow
    unitary = _UnitaryStage(left.matrix, right.matrix)

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
            wh_mats, wh_logs, wh_tmats, wh_tlogs, rng, polish_iterations=300,
        )[0], None))
    except LinAlgError as ex:
        candidates.append(("recovery", None, type(ex).__name__))
    for i in range(RANDOM_STARTS):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        candidates.append((f"random{i}", polar_unitary(z), None))

    label, start, start_ev, tried = None, None, None, []
    for name, w, error in candidates:
        if w is None:
            tried.append(SearchStart(name, None, error))
            continue
        ev = objective(unitary.c_of(w))
        tried.append(SearchStart(name, ev.value))
        if start_ev is None or ev.value < start_ev.value:
            label, start, start_ev = name, w, ev
    start_evaluations = objective.evaluations

    unitary_stage = _descend(objective, unitary, start, start_ev)
    best = objective.best
    refine_stage = _descend(objective, _RefineStage(), best.c, best)
    best = objective.best
    if best.lo is None:
        raise ConvergenceError("no start gives a finite log ratio")
    return SimilarityCertificate(
        best.c, float(best.lo.min()), float(best.hi.max()),
        search=SearchSummary(label, start_evaluations, tuple(tried), unitary_stage,
                             refine_stage, len(rows)),
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
    equivalent: bool
    V: np.ndarray | None
    residual: float
    witness: tuple | None
    message: str
    polish: PolishSummary | None = None  # None when an invariant decides
    # the congruence invariant behind the witness: "spectrum" or "trace"
    witness_invariant: str | None = None


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


def _level_zero_log_traces(mats) -> np.ndarray:
    """log tr(A_0 A_beta) for every beta of a balanced stack; NaN where the
    rounded trace is not positive, so that index decides nothing."""
    traces = np.einsum("ij,bji->b", mats[0], mats).real
    return np.log(traces, out=np.full(traces.shape, np.nan), where=traces > 0)


def _invariant_witness(gaps, tol, indices, invariant: str,
                       what: str) -> UnitaryEquivalenceResult | None:
    """The NO whose witness is the first index in graded order with a
    log-domain gap above tol, or None when every gap is within it."""
    mismatched = np.nonzero(gaps > tol)[0]
    if not mismatched.size:
        return None
    k = int(mismatched[0])
    return UnitaryEquivalenceResult(
        equivalent=False, V=None, residual=float(gaps[k]), witness=indices[k],
        message=f"{what} differ at alpha={indices[k]} (log-domain gap {gaps[k]:.3e})",
        witness_invariant=invariant,
    )


def test_unitary_equivalence(ms: MomentSystem, mt: MomentSystem,
                             tol: float = DEFAULT_TOL, *,
                             seed: int = 0,
                             polish_iterations: int = 500) -> UnitaryEquivalenceResult:
    """Decide simultaneous unitary congruence of the two Gram families.

    Two congruence invariants give quick NO witnesses, both in the log
    domain so scales count: the eigenvalue list of each G_alpha, then the
    level-zero traces tr(G_0 G_beta) (tr(V* G_0 V V* G_beta V) = tr(G_0 G_beta)
    for unitary V). The witness is the first index in graded order whose gap
    exceeds tol. When both match, V is recovered by aligning the eigenframes
    of a seeded positive combination of each family — phases fixed against a
    second combination when the spectrum has gaps — and polished by
    alternating polar iterations on the coupling sum; YES requires the final
    congruence residual to meet tol. The result carries the PolishSummary
    whenever the polish ran.
    """
    _require_same_shape(ms, mt)
    indices = ms.truncation().indices
    mats, logs = ms.mats, ms.logs
    tmats, tlogs = mt.mats, mt.logs

    eigs, _ = herm_eig_batch(mats, vectors=False)
    teigs, _ = herm_eig_batch(tmats, vectors=False)
    log_spec = np.log(eigs) + logs[:, None]
    log_tspec = np.log(teigs) + tlogs[:, None]
    witness = _invariant_witness(np.abs(log_spec - log_tspec).max(axis=1), tol,
                                 indices, "spectrum", "eigenvalue lists")
    if witness is not None:
        return witness
    # a sum of differences: the logscales themselves may reach +-1e308, but
    # matching spectra bound each l_alpha - l~_alpha
    gaps = np.abs(_level_zero_log_traces(mats) - _level_zero_log_traces(tmats)
                  + (logs[0] - tlogs[0]) + (logs - tlogs))
    witness = _invariant_witness(gaps, tol, indices, "trace",
                                 "level-zero traces tr(G_0 G_alpha)")
    if witness is not None:
        return witness

    rng = np.random.default_rng(seed)
    v, polish = _recover_congruence_unitary(mats, logs, tmats, tlogs, rng,
                                            polish_iterations)
    residual = _congruence_residual(mats, logs, tmats, tlogs, v)
    if residual <= tol:
        return UnitaryEquivalenceResult(
            equivalent=True, V=v, residual=residual, witness=None,
            message=f"recovered unitary with congruence residual {residual:.3e}",
            polish=polish,
        )
    return UnitaryEquivalenceResult(
        equivalent=False, V=None, residual=residual, witness=None,
        message=(
            "eigenvalue lists match but unitary recovery stalled at "
            f"residual {residual:.3e} (optimization floor)"
        ),
        polish=polish,
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
class ShiftPair:
    """A pair's truncated shifts and level-raising path products, built once.

    mz[j] and tmz[j] are build_mz of the source and the target, full[j] their
    dense matrices (source, target). tproducts and inv_products stack, in
    graded order, the target's staircase products P~_alpha and the inverses
    P_alpha^{-1} of the source's (shiftcore._staircase_products order).
    """

    mz: tuple
    tmz: tuple
    full: tuple
    tproducts: np.ndarray
    inv_products: np.ndarray


def shift_pair(ms: MomentSystem, mt: MomentSystem) -> ShiftPair:
    """Build the shifts and path products of (ms, mt) once, for the oracle and its checks."""
    _require_same_shape(ms, mt)
    mz = tuple(build_mz(ms, j) for j in range(ms.d))
    tmz = tuple(build_mz(mt, j) for j in range(mt.d))
    trunc, n = ms.truncation(), ms.fiber_dim
    products = _staircase_products(trunc, n, lambda alpha, j: mz[j].blocks[alpha])
    tproducts = _staircase_products(trunc, n, lambda alpha, j: tmz[j].blocks[alpha])
    return ShiftPair(
        mz=mz,
        tmz=tmz,
        full=tuple((a.full_matrix(), b.full_matrix()) for a, b in zip(mz, tmz)),
        tproducts=np.stack(list(tproducts.values())),
        inv_products=np.stack([inv(p) for p in products.values()]),
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
    interior = list(trunc.interior())
    up = [np.array([trunc.position(shifted(a, j)) for a in interior], dtype=np.intp)
          for j in range(d)]
    tblocks = [np.array(list(t.blocks.values()), dtype=np.complex128).reshape(-1, n, n)
               for t in shifts.tmz]
    # rows[b]: graded ranks of the levels g + beta, |g| <= N - |beta|, in the
    # order of g; qs[b]: the target's products from level g to g + beta.
    rows = [np.arange(m)]
    qs = [np.broadcast_to(np.eye(n, dtype=np.complex128), (m, n, n))]
    for beta in trunc.indices[1:]:
        j = max(k for k in range(d) if beta[k])
        below = trunc.position(shifted(beta, j, -1))
        src = rows[below][:simplex_size(d, ms.N - degree(beta))]
        rows.append(up[j][src])
        qs.append(tblocks[j][src] @ qs[below][:len(src)])

    # Each equation off the staircase, at row level g + alpha + e_j, reads
    # L1 X[g, 0] R1 = L2 X[g, 0] R2 for |g| < N - |alpha|; degree-sorted.
    inv_p = shifts.inv_products
    terms = []
    scale = 0.0
    for alpha in interior:
        for j in range(d):
            if not any(alpha[j + 1:]):
                continue
            a, b = trunc.position(alpha), trunc.position(shifted(alpha, j))
            term = (qs[b], inv_p[b] @ shifts.mz[j].blocks[alpha],
                    tblocks[j][rows[a][:len(rows[b])]] @ qs[a][:len(rows[b])], inv_p[a])
            terms.append((degree(alpha), term))
            for left, right in (term[:2], term[2:]):  # ||L x R||_F <= ||L||_F ||R||_F ||x||
                scale = max(scale, float(np.linalg.norm(left, axis=(1, 2)).max())
                            * frob_norm(right))
    threshold = INTERTWINER_RANK_RTOL * scale
    vectors, null, largest = [], [], 0.0
    for g in range(ms.N + 1):
        lo, hi = simplex_size(d, g - 1) if g else 0, simplex_size(d, g)
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
    product of the source shift. shifts, when given, is shift_pair(ms, mt).
    """
    _require_same_shape(ms, mt)
    shifts = shifts if shifts is not None else shift_pair(ms, mt)
    n = x.fiber_dim
    m = len(shifts.inv_products)
    diag = x.matrix.reshape(m, n, m, n)[range(m), :, range(m), :]
    expected = shifts.tproducts @ diag[0] @ shifts.inv_products
    err = np.linalg.norm(diag - expected, axis=(1, 2))
    scale = np.maximum(np.maximum(np.linalg.norm(expected, axis=(1, 2)),
                                  np.linalg.norm(diag, axis=(1, 2))), 1e-300)
    return float((err / scale).max())


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
    keep = x.fiber_dim * simplex_size(ms.d, ms.N - 1) if ms.N > 0 else 0
    norm_x = x_range[1] if x_range is not None else x.norm()
    worst = 0.0
    for mz, mzt, (full, tfull) in zip(shifts.mz, shifts.tmz, shifts.full):
        lhs = x.matrix @ full[:, :keep]
        rhs = tfull @ x.matrix[:, :keep]
        scale = max(norm_x * max(mz.norm_estimate, mzt.norm_estimate), 1e-300)
        worst = max(worst, spectral_norm(lhs - rhs) / scale)
    return worst
