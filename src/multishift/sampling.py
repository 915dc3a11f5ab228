"""Seeded random instances: PD matrices, unitaries, valid moment/weight systems.

Shared by the CLI generators and the test suite. Everything is driven by a
numpy Generator so identical seeds give identical instances.
"""

from __future__ import annotations

import numpy as np

from .lattice import simplex_size
from .numerics import HermPD, hermpd, hermpd_batch, polar_unitary
from .shiftcore import MomentSystem


def rng_from(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _random_pd_raw(n: int, rng: np.random.Generator, logscale_span: float):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = a @ a.conj().T + n * np.eye(n)
    logscale = float(rng.uniform(-logscale_span, logscale_span)) if logscale_span else 0.0
    return mat, logscale


def random_pd(n: int, seed, *, logscale_span: float = 0.0) -> HermPD:
    """A moderately conditioned random PD matrix, optionally with a random logscale."""
    return hermpd(*_random_pd_raw(n, rng_from(seed), logscale_span))


def random_pd_stack(k: int, n: int, seed, *, logscale_span: float = 0.0) -> tuple:
    """k random_pd draws in turn as balanced stacks (mats (k, n, n), logs (k,)),
    each row bit-identical to its random_pd; k >= 1."""
    rng = rng_from(seed)
    raw = [_random_pd_raw(n, rng, logscale_span) for _ in range(k)]
    return hermpd_batch(np.stack([m for m, _ in raw]), [lg for _, lg in raw])


def random_unitary(n: int, seed) -> np.ndarray:
    rng = rng_from(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return polar_unitary(z)


def random_moment_system(d: int, top_degree: int, n: int, seed, *,
                         logscale_span: float = 1.0) -> MomentSystem:
    """A valid random MomentSystem: independent PD Grams with spread logscales."""
    mats, logs = random_pd_stack(simplex_size(d, top_degree), n, seed,
                                 logscale_span=logscale_span)
    return MomentSystem.from_arrays(d, top_degree, n, mats, logs)


def congruent_pair(ms: MomentSystem, transform: np.ndarray) -> MomentSystem:
    """Transport every Gram by G -> T* G T (unitary T gives a unitary twin)."""
    mats, logs = hermpd_batch(transform.conj().T @ ms.mats @ transform, ms.logs)
    return MomentSystem.from_arrays(ms.d, ms.N, ms.fiber_dim, mats, logs)
