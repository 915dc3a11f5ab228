"""Test-only constructions derived from the package's seeded systems."""

import numpy as np

from multishift import sampling
from multishift.numerics import (
    CholeskyError,
    PositiveDefiniteError,
    cholesky_batch,
    hermpd,
    hermpd_batch,
    inv_sqrt_pd,
)
from multishift.shiftcore import MomentSystem, WeightSystem, canonical_weights


def scaled_system(ms: MomentSystem, log_factor: float) -> MomentSystem:
    """Multiply every represented Gram by exp(log_factor)."""
    return MomentSystem.from_arrays(ms.d, ms.N, ms.fiber_dim, ms.mats, ms.logs + log_factor)


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
