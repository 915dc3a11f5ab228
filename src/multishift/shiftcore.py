"""Truncated operator-valued multishifts.

A WeightSystem stores the raw operator weights A^(j)_alpha on a degree-N
simplex; a MomentSystem stores the Gram family G_alpha = B*_alpha B_alpha,
which is the complete similarity invariant used by every criterion
downstream. The canonical matrix realization of the shift tuple works in
orthonormalized fiber coordinates, where the level-raising block from alpha
to alpha+e_j is G_{alpha+e_j}^{1/2} G_alpha^{-1/2}: adjoints are literal
conjugate transposes and operator norms are literal spectral norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .lattice import Truncation, _truncation, shifted
from .numerics import (
    HermPD,
    _eig_transform_batch,
    _svd,
    frob_norm,
    hermpd_batch,
    inv_pd_batch,
    singular_range,
)

WEIGHT_SINGULARITY_TOL = 1e-12
COMMUTATION_TOL = 1e-10


class ValidationFailedError(Exception):
    """Raised when an operation requires a weight system that fails validation."""


@dataclass(frozen=True, eq=False)
class WeightSystem:
    """Operator weights (alpha, j) -> invertible n x n matrix, |alpha| <= N-1."""

    d: int
    N: int
    fiber_dim: int
    weights: dict

    def __post_init__(self):
        trunc = self.truncation()
        for alpha in trunc.interior():
            for j in range(self.d):
                key = (alpha, j)
                if key not in self.weights:
                    raise ValueError(f"missing weight at alpha={alpha}, j={j}")
                w = self.weights[key]
                if w.shape != (self.fiber_dim, self.fiber_dim):
                    raise ValueError(f"weight at {key} has shape {w.shape}")

    def truncation(self) -> Truncation:
        return _truncation(self.d, self.N)

    def weight(self, alpha, j) -> np.ndarray:
        return self.weights[(tuple(alpha), j)]


class GradedFamily:
    """A PD family alpha -> exp(logs[k]) mats[k] on |alpha| <= N, k the graded rank.

    The rows fall into classes: classes (m,) maps each row to a row of the
    class stack class_mats (c, n, n), and mats (m, n, n) is that stack
    gathered, so the rows of one class share one balanced matrix bit for bit;
    logs (m,) holds every row's logscale. The kernel generators number the
    degrees as classes: there a row's logscale differs from its class's by
    -log alpha! (kernel coefficients) or +log alpha! (moments), so the
    pencils of a pair of such families depend on the degree alone. A family
    given row by row has the identity map. The stacks are made read-only,
    and one row is read as a HermPD view.
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
        self.mats = self.class_mats if identity else self.class_mats[self.classes]
        for arr in (self.class_mats, self.mats, self.logs, self.classes):
            arr.flags.writeable = False

    def truncation(self) -> Truncation:
        return self._trunc

    def row(self, alpha) -> HermPD:
        """The HermPD at alpha, a view of one row of the stacks."""
        k = self._trunc.position(alpha)
        return HermPD(self.mats[k], float(self.logs[k]))


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
    level alpha to level alpha + e_j; src (k,) and dst (k,) hold the graded
    ranks of alpha and alpha + e_j. Blocks that would exit the truncation are
    absent. The operator is strictly level-raising, so its matrix is
    block-subdiagonal in the graded order.
    """

    j: int
    d: int
    N: int
    fiber_dim: int
    blocks: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    norm_estimate: float
    min_singular_value: float

    def full_matrix(self) -> np.ndarray:
        n, m = self.fiber_dim, len(_truncation(self.d, self.N))
        out = np.zeros((m, n, m, n), dtype=np.complex128)
        out[self.dst, :, self.src, :] = self.blocks
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
    """Check invertibility and the commutation condition; never raises."""
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
                failures.append(
                    f"weight at alpha={alpha}, j={j} is numerically singular"
                )
    max_resid = 0.0
    worst = None
    for alpha in trunc.interior(2):
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
        failures.append(
            f"commutation residual {max_resid:.3e} at alpha={worst[0]}, "
            f"i={worst[1]}, j={worst[2]}"
        )
    if min_ratio is math.inf:
        min_ratio = 1.0
    return ValidationReport(
        passes=not failures,
        max_commutation_residual=max_resid,
        min_singular_ratio=min_ratio,
        max_weight_norm=max_norm,
        failures=tuple(failures),
    )


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
    the canonical staircase. Raw weights do not telescope, so this walks them."""
    trunc = ws.truncation()
    out = np.empty((len(trunc), ws.fiber_dim, ws.fiber_dim), dtype=np.complex128)
    out[0] = np.eye(ws.fiber_dim)
    for k, alpha in enumerate(trunc.indices[1:], 1):
        j = max(i for i in range(ws.d) if alpha[i])
        below = shifted(alpha, j, -1)
        out[k] = ws.weight(below, j) @ out[trunc.position(below)]
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
    trunc = ms.truncation()
    up, up_logs, down, down_logs = roots
    dst = np.array([trunc.position(shifted(a, j)) for a in trunc.interior()], dtype=np.intp)
    src = np.arange(len(dst))
    blocks = _scaled(up_logs[dst] + down_logs[src], up[dst] @ down[src])
    s = _svd(blocks, compute_uv=False) if len(blocks) else np.zeros((1, 1))
    return TruncatedMz(j=j, d=ms.d, N=ms.N, fiber_dim=ms.fiber_dim, blocks=blocks,
                       src=src, dst=dst, norm_estimate=float(s[:, 0].max()),
                       min_singular_value=float(s[:, -1].min()))


def canonical_weights(ms: MomentSystem) -> WeightSystem:
    """The orthonormal-frame weights A^(j)_alpha = G_{alpha+e_j}^{1/2} G_alpha^{-1/2}.

    These satisfy the commutation condition up to numerics (both orderings
    telescope to G_{alpha+e_i+e_j}^{1/2} G_alpha^{-1/2}) and reproduce ms from
    moments_from_weights up to the G_0 normalization.
    """
    roots = _roots(ms)
    weights = {}
    for j in range(ms.d):
        blocks = _shift(ms, roots, j).blocks
        weights.update(((alpha, j), b) for alpha, b in zip(ms.truncation().interior(), blocks))
    return WeightSystem(ms.d, ms.N, ms.fiber_dim, weights)


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
    below, beta = mz.src, mz.dst
    ginv, ginv_logs = inv_pd_batch(ms.mats[below], ms.logs[below])
    route_two = _scaled(up_logs[below] + (ginv_logs + ms.logs[beta]) + down_logs[beta],
                        up[below] @ (ginv @ ms.mats[beta]) @ down[beta])
    return _max_row_gap(mz.blocks.conj().swapaxes(1, 2), route_two)


def _max_row_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max over k of ||a[k] - b[k]||_F / max(||a[k]||_F, ||b[k]||_F); 0.0 for empty stacks."""
    err = np.linalg.norm(a - b, axis=(1, 2))
    scale = np.maximum(np.maximum(np.linalg.norm(a, axis=(1, 2)),
                                  np.linalg.norm(b, axis=(1, 2))), 1e-300)
    return float((err / scale).max()) if len(err) else 0.0
