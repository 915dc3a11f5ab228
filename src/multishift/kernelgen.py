"""Generators for diagonal-kernel moment systems and their closed-form facts.

Three families: Pochhammer diagonal kernels on the unit ball (coefficients
diag((a)_m, (b)_m)/alpha! with (x)_m the rising factorial), unitary-group
homogeneous kernels (coefficients (|alpha|!/alpha!) A_{|alpha|}), and finite
perturbations of a base kernel, which come with an explicit similarity
certificate. Kernel coefficients C_alpha invert to moments G_alpha = C_alpha^{-1};
every quantity is carried in the log domain so degree-200 truncations stay
inside double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equivalence import SimilarityCertificate
from .lattice import _truncation, degree, simplex_size
from .numerics import (
    HermPD,
    hermpd_from_log_diag_batch,
    inv_pd_batch,
    pencil_factors,
    pencil_logrange_batch,
)
from .shiftcore import GradedFamily, MomentSystem

class KernelSpec(GradedFamily):
    """Diagonal reproducing kernel data: coefficients alpha -> C_alpha (PD), stored
    as graded stacks like MomentSystem; coeff(alpha) is a HermPD view of one row.
    The generators below build one class per degree (see GradedFamily)."""

    coeff = GradedFamily.row


@dataclass(frozen=True)
class PochhammerPair:
    """Exponent pair (lam, mu) of a 2 x 2 diagonal power kernel on the ball."""

    lam: float
    mu: float

    def __post_init__(self):
        if not (self.lam > 0.0 and self.mu > 0.0):
            raise ValueError("Pochhammer parameters must be strictly positive")


def log_pochhammer(x: float, n: int) -> float:
    """log of the rising factorial (x)_n = Gamma(x+n)/Gamma(x); exact 0 at n=0."""
    if x <= 0.0:
        raise ValueError(f"base must be positive, got {x}")
    if n < 0:
        raise ValueError(f"order must be non-negative, got {n}")
    if n == 0:
        return 0.0
    return math.lgamma(x + n) - math.lgamma(x)


def log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def _graded_log_factorials(d: int, top_degree: int):
    """|alpha| and log(alpha!) per row of the truncation, and log(m!) per degree m."""
    idx = _truncation(d, top_degree).array
    lf = np.array([log_factorial(m) for m in range(top_degree + 1)])
    # cumsum adds strictly left to right, so each row is sum(lgamma(a + 1)) to the bit
    return idx.sum(axis=1), np.cumsum(lf[idx], axis=1)[:, -1], lf


def kernel_moments(spec: KernelSpec) -> MomentSystem:
    """Moments G_alpha = C_alpha^{-1}, inverted in the log domain once per class.

    A row's moment logscale is minus its coefficient logscale plus its class's
    balancing shift, the same sum inverting the row on its own would give.
    """
    mats, shift = inv_pd_batch(spec.class_mats, np.zeros(len(spec.class_mats)))
    return MomentSystem.from_arrays(spec.d, spec.N, spec.fiber_dim, mats,
                                    shift[spec.classes] - spec.logs, spec.classes)


def pochhammer_kernel(pair: PochhammerPair, d: int, top_degree: int) -> KernelSpec:
    """KernelSpec of the diagonal Pochhammer kernel, one class per degree.

    C_alpha = diag((lam)_{|alpha|}, (mu)_{|alpha|}) / alpha!, assembled in the
    log domain: degree m's class holds the balanced diag((lam)_m, (mu)_m), and
    each row's logscale subtracts log(alpha!) from its class's.
    """
    by_degree = np.array([[log_pochhammer(pair.lam, m), log_pochhammer(pair.mu, m)]
                          for m in range(top_degree + 1)])
    mats, logs = hermpd_from_log_diag_batch(by_degree)
    deg, lfact, _ = _graded_log_factorials(d, top_degree)
    return KernelSpec(d, top_degree, 2, mats, logs[deg] - lfact, classes=deg)


def pochhammer_ground_truth(pair: PochhammerPair, other: PochhammerPair) -> bool:
    """Whether the two kernels' shift tuples are similar: unordered pair equality.

    Exact comparison of the input parameters, not of computed values.
    """
    return sorted((pair.lam, pair.mu)) == sorted((other.lam, other.mu))


def homogeneous_kernel(coeffs_by_degree, d: int) -> KernelSpec:
    """Unitary-group homogeneous kernel: C_alpha = (|alpha|!/alpha!) A_{|alpha|}.

    coeffs_by_degree lists A_0..A_N as HermPDs of one shared dimension, one
    class per degree; the multinomial factor rides in the logscale: degree m's
    class is m! A_m, and each row subtracts log(alpha!) from it.
    """
    coeffs_by_degree = list(coeffs_by_degree)
    if not coeffs_by_degree:
        raise ValueError("need at least A_0")
    n = coeffs_by_degree[0].dim
    for m, a in enumerate(coeffs_by_degree):
        if not isinstance(a, HermPD):
            raise ValueError(f"A_{m} is not a HermPD")
        if a.dim != n:
            raise ValueError(f"A_{m} has dimension {a.dim}, expected {n}")
    top = len(coeffs_by_degree) - 1
    deg, lfact, lf = _graded_log_factorials(d, top)
    mats = np.stack([a.matrix for a in coeffs_by_degree])
    logs = np.array([a.logscale for a in coeffs_by_degree]) + lf
    return KernelSpec(d, top, n, mats, logs[deg] - lfact, classes=deg)


def perturb_kernel(spec: KernelSpec, replacements: dict):
    """Replace finitely many low-degree coefficients; return the closed-form certificate.

    replacements maps alpha -> HermPD for indices with |alpha| <= n0 (n0 the
    largest replaced degree). The certificate is (C = I, m1 = min{1, c1},
    m2 = max{1, c2}) with c1 = min 1/||C_a^{-1/2} D_a C_a^{-1/2}|| and
    c2 = max ||C_a^{1/2} D_a^{-1} C_a^{1/2}|| over |alpha| <= n0, evaluated as
    extreme generalized eigenvalues of the pencils (D_a, C_a). Each replaced
    index becomes a class of its own.
    """
    trunc = spec.truncation()
    logs, classes = spec.logs.copy(), spec.classes.copy()
    extra = []
    n0 = -1  # the largest replaced degree
    for alpha, dmat in replacements.items():
        alpha = tuple(alpha)
        if alpha not in trunc:
            raise IndexError(f"replacement index {alpha} outside the truncation")
        if not isinstance(dmat, HermPD) or dmat.dim != spec.fiber_dim:
            raise ValueError(f"replacement at {alpha} is not an n x n HermPD")
        k = trunc.position(alpha)
        classes[k], logs[k] = len(spec.class_mats) + len(extra), dmat.logscale
        extra.append(dmat.matrix)
        n0 = max(n0, degree(alpha))
    class_mats = np.concatenate([spec.class_mats, np.reshape(
        extra, (len(extra), spec.fiber_dim, spec.fiber_dim))])
    perturbed = KernelSpec(spec.d, spec.N, spec.fiber_dim, class_mats, logs,
                           classes=classes)
    lo, hi = [0.0], [0.0]
    if n0 >= 0:
        k0 = simplex_size(spec.d, n0)
        lo, hi = pencil_logrange_batch(*pencil_factors(perturbed.mats[:k0], spec.mats[:k0]),
                                       np.eye(spec.fiber_dim, dtype=np.complex128))
        off = logs[:k0] - spec.logs[:k0]
        lo, hi = off + lo, off + hi
    cert = SimilarityCertificate(
        C=np.eye(spec.fiber_dim, dtype=np.complex128),
        log_m1=min(0.0, -float(np.max(hi))),
        log_m2=max(0.0, -float(np.min(lo))),
    )
    return perturbed, cert


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
    _, hi = pencil_logrange_batch(*pencil_factors(spec.mats[below], spec.mats[rows]),
                                  np.eye(spec.fiber_dim, dtype=np.complex128))
    return math.exp(0.5 * float((spec.logs[below] - spec.logs[rows] + hi).max()))
