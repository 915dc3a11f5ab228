"""Truncated operator-valued multishifts.

A WeightSystem stores the raw operator weights A^(j)_alpha as one graded
stack (d, k, n, n) over the k interior indices |alpha| <= N - 1; a
MomentSystem stores the Gram family G_alpha = B*_alpha B_alpha, the complete
similarity invariant used by every criterion downstream, as graded stacks.
Both are read in batched passes that take the lattice's neighbours from its
Truncation. The canonical matrix realization of the shift tuple works in
orthonormalized fiber coordinates, where the level-raising block from alpha
to alpha+e_j is G_{alpha+e_j}^{1/2} G_alpha^{-1/2}: adjoints are literal
conjugate transposes and operator norms are literal spectral norms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .lattice import Truncation, _truncation
from .numerics import (
    HermPD,
    _eig_transform_batch,
    _svd,
    hermpd_batch,
    inv_pd_batch,
)

WEIGHT_SINGULARITY_TOL = 1e-12
COMMUTATION_TOL = 1e-10


class ValidationFailedError(Exception):
    """Raised when an operation requires a weight system that fails validation."""


class WeightSystem:
    """Operator weights A^(j)_alpha, invertible n x n, on |alpha| <= N - 1 as one
    read-only complex stack weights (d, k, n, n): row r of weights[j] is A^(j)
    at the interior index of graded rank r; weight(alpha, j) is a view of it."""

    def __init__(self, d: int, N: int, fiber_dim: int, weights):
        """From a (d, k, n, n) stack in graded order, kept uncopied."""
        self.d, self.N, self.fiber_dim = d, N, fiber_dim
        self.weights = np.ascontiguousarray(weights, dtype=np.complex128)
        shape = (d, lattice.simplex_size(d, N - 1), fiber_dim, fiber_dim)
        if self.weights.shape != shape:
            raise ValueError(f"expected a {shape} weight stack, got {self.weights.shape}")
        self.weights.flags.writeable = False

    def truncation(self) -> Truncation:
        return _truncation(self.d, self.N)

    def weight(self, alpha, j) -> np.ndarray:
        return self.weights[j, self.truncation().position(alpha)]


class GradedFamily:
    """A PD family alpha -> exp(logs[k]) mats[k] on |alpha| <= N, k the graded rank.

    The rows fall into classes: classes (m,) maps each row to a row of the
    class stack class_mats (c, n, n), and mats (m, n, n) is that stack
    gathered on first read, so the rows of one class share one balanced
    matrix bit for bit; logs (m,) holds every row's logscale. The kernel
    generators number the degrees as classes: there a row's logscale differs
    from its class's by -log alpha! (kernel coefficients) or +log alpha!
    (moments), so a pair's pencils depend on the degree alone. A family
    given row by row has the identity map; the stacks are read-only.
    """

    def __init__(self, d: int, N: int, fiber_dim: int, mats, logs, classes=None):
        """mats holds one balanced matrix per row, or per class when classes is given."""
        self.d, self.N, self.fiber_dim = d, N, fiber_dim
        self._trunc = _truncation(d, N)
        m = len(self._trunc)
        self.class_mats = np.ascontiguousarray(mats, dtype=np.complex128)
        self.logs = np.ascontiguousarray(logs, dtype=np.float64)
        c = len(self.class_mats)
        identity = classes is None
        self.classes = np.arange(c) if identity else np.ascontiguousarray(classes, dtype=np.intp)
        if (self.class_mats.shape[1:] != (fiber_dim, fiber_dim) or self.logs.shape != (m,)
                or self.classes.shape != (m,)):
            raise ValueError(f"expected ({m}, {fiber_dim}, {fiber_dim}) or class stacks and "
                             f"({m},) logscales and classes, got {self.class_mats.shape}, "
                             f"{self.logs.shape}, {self.classes.shape}")
        if m and (self.classes.min() < 0 or self.classes.max() >= c):
            raise ValueError(f"class map points outside the {c} classes")
        if identity:
            self.mats = self.class_mats
        for arr in (self.class_mats, self.logs, self.classes):
            arr.flags.writeable = False

    @functools.cached_property
    def mats(self) -> np.ndarray:
        mats = self.class_mats[self.classes]
        mats.flags.writeable = False
        return mats

    def truncation(self) -> Truncation:
        return self._trunc

    def row(self, alpha) -> HermPD:
        """The HermPD at alpha, a view of one row of the stacks."""
        k = self._trunc.position(alpha)
        return HermPD(self.class_mats[self.classes[k]], float(self.logs[k]))


class MomentSystem(GradedFamily):
    """Gram family alpha -> G_alpha on the full simplex |alpha| <= N, stored as
    graded stacks; gram(alpha) is a HermPD view of one row."""

    def __init__(self, d: int, N: int, fiber_dim: int, grams):
        """From a mapping alpha -> HermPD that covers the truncation."""
        rows = []
        for alpha in _truncation(d, N):
            g = grams.get(alpha)
            if g is None:
                raise ValueError(f"missing Gram matrix at alpha={alpha}")
            if not isinstance(g, HermPD) or g.dim != fiber_dim:
                raise ValueError(f"Gram at {alpha} is not an n x n HermPD")
            rows.append(g)
        super().__init__(d, N, fiber_dim, np.stack([g.matrix for g in rows]),
                         [g.logscale for g in rows])

    @classmethod
    def from_arrays(cls, d: int, N: int, fiber_dim: int, mats, logs,
                    classes=None) -> "MomentSystem":
        """From balanced stacks in graded order (hermpd_batch output), kept uncopied;
        mats is the class stack when classes is given (see GradedFamily)."""
        out = cls.__new__(cls)
        GradedFamily.__init__(out, d, N, fiber_dim, mats, logs, classes)
        return out

    gram = GradedFamily.row

    def same_shape(self, other: "MomentSystem") -> bool:
        return (self.d, self.N, self.fiber_dim) == (other.d, other.N, other.fiber_dim)


@dataclass(frozen=True, eq=False)
class TruncatedMz:
    """One coordinate multiplication operator in orthonormalized coordinates.

    blocks (k, n, n) stacks, over the k interior levels |alpha| <= N - 1 in
    graded order, the blocks G_{alpha+e_j}^{1/2} G_alpha^{-1/2} that map
    level alpha to level alpha + e_j, so block r leaves graded rank r; dst
    (k,) holds the graded ranks of alpha + e_j. Blocks that would exit the
    truncation are absent. The operator is strictly level-raising, so its
    matrix is block-subdiagonal in the graded order.
    """

    j: int
    d: int
    N: int
    fiber_dim: int
    blocks: np.ndarray
    dst: np.ndarray
    norm_estimate: float
    min_singular_value: float

    def full_matrix(self) -> np.ndarray:
        n, m = self.fiber_dim, len(_truncation(self.d, self.N))
        out = np.zeros((m, n, m, n), dtype=np.complex128)
        out[self.dst, :, range(len(self.dst)), :] = self.blocks
        return out.reshape(m * n, m * n)


@dataclass(frozen=True)
class ValidationReport:
    passes: bool
    max_commutation_residual: float
    min_singular_ratio: float
    max_weight_norm: float
    failures: tuple

    def __str__(self):
        status = "PASS" if self.passes else "FAIL"
        lines = [
            f"weight validation: {status}",
            f"  max commutation residual: {self.max_commutation_residual:.3e}",
            f"  min singular-value ratio: {self.min_singular_ratio:.3e}",
            f"  max weight norm: {self.max_weight_norm:.6g}",
        ]
        lines += [f"  - {f}" for f in self.failures]
        return "\n".join(lines)


def validate_weights(ws: WeightSystem) -> ValidationReport:
    """Check invertibility and the commutation condition; never raises.

    One batched SVD serves every weight, and one batched product per side
    every (alpha, i < j) pair; failures come in the order alpha, then j.
    """
    trunc, w = ws.truncation(), ws.weights
    s = _svd(w, compute_uv=False)
    lo, hi = s[..., -1].T, s[..., 0].T  # (k, d): alpha-major
    ratio = np.divide(lo, hi, out=np.zeros_like(lo), where=hi > 0.0)
    failures = [f"weight at alpha={trunc.alpha(a)}, j={j} is numerically singular"
                for a, j in zip(*np.nonzero(~(ratio > WEIGHT_SINGULARITY_TOL)))]
    i, j = np.triu_indices(ws.d, 1)
    a = np.arange(lattice.simplex_size(ws.d, ws.N - 2))[:, None]
    up = trunc.raise_map
    # both products of a pair scaled by one exact power of two, 2**-top, from the
    # norms ||w[c, r]|| < 2**e[c, r]: none overflows, and the relative gap keeps its bits
    e = np.frexp(s[..., 0])[1]
    p1, p2, q1, q2 = (i, up[j, a]), (j, a), (j, up[i, a]), (i, a)
    top = np.maximum(e[p1] + e[p2], e[q1] + e[q2])
    # fmax drops NaN (inf - inf from a non-finite weight), as a running max would
    resid = np.fmax(_row_gaps(_ldexp(w[p1], -e[p1]) @ _ldexp(w[p2], e[p1] - top),
                              _ldexp(w[q1], -e[q1]) @ _ldexp(w[q2], e[q1] - top)), 0.0)
    max_resid = float(resid.max(initial=0.0))
    if max_resid > COMMUTATION_TOL:
        alpha, pair = divmod(int(resid.argmax()), len(i))
        failures.append(f"commutation residual {max_resid:.3e} at alpha={trunc.alpha(alpha)}, "
                        f"i={i[pair]}, j={j[pair]}")
    return ValidationReport(
        passes=not failures,
        max_commutation_residual=max_resid,
        min_singular_ratio=float(ratio.min(initial=1.0)),  # no ratio exceeds 1
        max_weight_norm=float(hi.max(initial=0.0)),
        failures=tuple(failures),
    )


def _ldexp(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """z[...] * 2**e[...] for a contiguous complex stack, forming no power of two."""
    return np.ldexp(z.view(np.float64), e[..., None, None]).view(np.complex128)


def path_product(ws: WeightSystem, alpha, path=None) -> np.ndarray:
    """Ordered product of weights along a staircase from 0 to alpha.

    Later steps multiply on the left, matching how the shift tuple raises
    levels. Defaults to the canonical coordinate-major path.
    """
    if path is None:
        path = lattice.monotone_path(alpha)
    out = np.eye(ws.fiber_dim, dtype=np.complex128)
    for beta, j in path:
        out = ws.weight(beta, j) @ out
    return out


def moments_from_weights(ws: WeightSystem, g0: HermPD) -> MomentSystem:
    """G_alpha = P_alpha* G_0 P_alpha with P_alpha the canonical path product.

    The weight system must pass validation; G_0 normalizes level zero (any
    invertible level-zero factor is admissible, so it is an explicit input —
    the choice moves similarity certificates only through C).
    """
    report = validate_weights(ws)
    if not report.passes:
        raise ValidationFailedError(str(report))
    if g0.dim != ws.fiber_dim:
        raise ValueError(f"G_0 has dimension {g0.dim}, expected {ws.fiber_dim}")
    p = _staircase_products(ws)
    mats, logs = hermpd_batch(p.conj().swapaxes(1, 2) @ g0.matrix @ p,
                              np.full(len(p), g0.logscale))
    return MomentSystem.from_arrays(ws.d, ws.N, ws.fiber_dim, mats, logs)


def _staircase_products(ws: WeightSystem) -> np.ndarray:
    """(m, n, n) stack in graded order of P_0 = I and P_alpha = A^(j)_{alpha-e_j}
    P_{alpha-e_j}, j the trailing nonzero coordinate: the weight products along
    the canonical staircase. Raw weights do not telescope, so this walks them
    one degree, and one batched product, at a time."""
    trunc = ws.truncation()
    coords, below = trunc.parents
    out = np.empty((len(trunc), ws.fiber_dim, ws.fiber_dim), dtype=np.complex128)
    out[0] = np.eye(ws.fiber_dim)
    for g in range(1, ws.N + 1):
        rows = slice(lattice.simplex_size(ws.d, g - 1), lattice.simplex_size(ws.d, g))
        out[rows] = ws.weights[coords[rows], below[rows]] @ out[below[rows]]
    return out


def _roots(ms: GradedFamily) -> tuple:
    """(up, up_logs, down, down_logs): per-row G^{1/2} and G^{-1/2} of a family
    as balanced (m, n, n) stacks with (m,) logscales.

    One eigensolve of the class stack serves every row of a class: a row's
    root logscale is +-1/2 its own logscale plus its class's balancing shift,
    the sum that rooting the row on its own would give, bit for bit.
    """
    c = len(ms.class_mats)
    mats, shift = _eig_transform_batch(ms.class_mats, np.zeros(c), (np.sqrt, 0.5),
                                       (lambda e: 1.0 / np.sqrt(e), -0.5))
    return (mats[:c][ms.classes], 0.5 * ms.logs + shift[:c][ms.classes],
            mats[c:][ms.classes], -0.5 * ms.logs + shift[c:][ms.classes])


def _scaled(logs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """exp(logs[k]) mats[k] per row; math.exp per row, since a vectorised exp
    may differ in the last bit."""
    return np.array([math.exp(x) for x in logs.tolist()]).reshape(-1, 1, 1) * mats


def _shift(ms: MomentSystem, roots: tuple, j: int) -> TruncatedMz:
    """build_mz from the family's _roots."""
    if not 0 <= j < ms.d:
        raise ValueError(f"coordinate j={j} outside 0..{ms.d - 1}")
    up, up_logs, down, down_logs = roots
    dst = ms.truncation().raise_map[j]
    k = len(dst)
    blocks = _scaled(up_logs[dst] + down_logs[:k], up[dst] @ down[:k])
    s = _svd(blocks, compute_uv=False) if len(blocks) else np.zeros((1, 1))
    return TruncatedMz(j=j, d=ms.d, N=ms.N, fiber_dim=ms.fiber_dim, blocks=blocks,
                       dst=dst, norm_estimate=float(s[:, 0].max()),
                       min_singular_value=float(s[:, -1].min()))


def canonical_weights(ms: MomentSystem) -> WeightSystem:
    """The orthonormal-frame weights A^(j)_alpha = G_{alpha+e_j}^{1/2} G_alpha^{-1/2}.

    These satisfy the commutation condition up to numerics (both orderings
    telescope to G_{alpha+e_i+e_j}^{1/2} G_alpha^{-1/2}) and reproduce ms from
    moments_from_weights up to the G_0 normalization.
    """
    roots = _roots(ms)
    return WeightSystem(ms.d, ms.N, ms.fiber_dim,
                        np.stack([_shift(ms, roots, j).blocks for j in range(ms.d)]))


def build_mz(ms: MomentSystem, j: int) -> TruncatedMz:
    """Truncated matrix of the j-th coordinate shift in orthonormal coordinates."""
    return _shift(ms, _roots(ms), j)


def check_adjoint_formula(ms: MomentSystem, j: int) -> float:
    """Max residual between the two constructions of the adjoint shift blocks.

    Route one conjugate-transposes the level-raising blocks of build_mz.
    Route two expresses x z^beta -> G_{beta-e_j}^{-1} G_beta x z^{beta-e_j}
    in the same orthonormal coordinates, using a full inverse. Both should
    agree to ~1e-9 for any complete PD moment system; blocks at the
    truncation edge are the same set for both routes, so nothing is skipped.
    """
    up, up_logs, down, down_logs = roots = _roots(ms)
    mz = _shift(ms, roots, j)
    beta = mz.dst
    below = slice(len(beta))  # the interior ranks, in graded order
    ginv, ginv_logs = inv_pd_batch(ms.mats[below], ms.logs[below])
    route_two = _scaled(up_logs[below] + (ginv_logs + ms.logs[beta]) + down_logs[beta],
                        up[below] @ (ginv @ ms.mats[beta]) @ down[beta])
    return _max_row_gap(mz.blocks.conj().swapaxes(1, 2), route_two)


def _row_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a[k] - b[k]||_F / max(||a[k]||_F, ||b[k]||_F, 1e-300) over the leading axes."""
    err = np.linalg.norm(a - b, axis=(-2, -1))
    return err / np.maximum(np.maximum(np.linalg.norm(a, axis=(-2, -1)),
                                       np.linalg.norm(b, axis=(-2, -1))), 1e-300)


def _max_row_gap(a: np.ndarray, b: np.ndarray) -> float:
    """The largest of _row_gaps(a, b); 0.0 for empty stacks."""
    return float(_row_gaps(a, b).max(initial=0.0))
