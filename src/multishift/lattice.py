"""Multi-index bookkeeping: graded simplex truncations of N^d and lattice paths.

Multi-indices are plain tuples of non-negative ints; coordinate directions are
0-based. A truncation holds every index with total degree <= N (a simplex, not
a box: the kernel families downstream depend on the degree only), ordered by
ascending degree with lexicographic tie-breaking, which makes the list
downward closed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

MultiIndex = tuple


def degree(alpha: MultiIndex) -> int:
    return sum(alpha)

def shifted(alpha: MultiIndex, j: int, step: int = 1) -> MultiIndex:
    """alpha +/- step * e_j."""
    out = list(alpha)
    out[j] += step
    return tuple(out)


def simplex_size(d: int, top_degree: int) -> int:
    return math.comb(top_degree + d, d)


def enumerate_indices(d: int, top_degree: int) -> list[MultiIndex]:
    """All alpha in N^d with |alpha| <= top_degree, graded-lexicographic.

    Ascending total degree, ties broken lexicographically ascending; length
    is binomial(top_degree + d, d). Built without recursion: the simplex is
    grown one coordinate at a time in lexicographic order (every prefix in
    turn, followed by each value its remaining degree allows), then stably
    sorted by degree.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if top_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {top_degree}")
    idx = np.arange(top_degree + 1)[:, None]
    for _ in range(d - 1):
        room = top_degree + 1 - idx.sum(axis=1)  # values the next coordinate may take
        starts = np.cumsum(room) - room
        idx = np.column_stack((np.repeat(idx, room, axis=0),
                               np.arange(room.sum()) - np.repeat(starts, room)))
    idx = idx[np.argsort(idx.sum(axis=1), kind="stable")]
    return list(zip(*idx.T.tolist()))


def monotone_path(alpha: MultiIndex) -> list[tuple[MultiIndex, int]]:
    """Canonical coordinate-major staircase from 0 to alpha.

    Each step (beta, j) adds e_j at the lattice point beta; coordinate 0 is
    exhausted first, then coordinate 1, and so on. |alpha| steps total.
    """
    steps = []
    here = tuple(0 for _ in alpha)
    for j, a_j in enumerate(alpha):
        for _ in range(a_j):
            steps.append((here, j))
            here = shifted(here, j)
    return steps


def reverse_monotone_path(alpha: MultiIndex) -> list[tuple[MultiIndex, int]]:
    """Staircase from 0 to alpha exhausting the last coordinate first.

    Used by tests as the second path when checking that valid weight systems
    give path-independent products.
    """
    steps = []
    here = tuple(0 for _ in alpha)
    for j in range(len(alpha) - 1, -1, -1):
        for _ in range(alpha[j]):
            steps.append((here, j))
            here = shifted(here, j)
    return steps


@dataclass(frozen=True)
class Truncation:
    """The finite window |alpha| <= N onto N^d."""

    d: int
    N: int
    indices: tuple = field(init=False, repr=False)
    _pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = tuple(enumerate_indices(self.d, self.N))
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "_pos", {a: i for i, a in enumerate(idx)})

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, alpha) -> bool:
        return tuple(alpha) in self._pos

    def __iter__(self):
        return iter(self.indices)

    def position(self, alpha) -> int:
        """Rank of alpha in the graded order; KeyError when outside."""
        return self._pos[tuple(alpha)]

    def interior(self, margin: int = 1):
        """Indices with |alpha| <= N - margin (those whose e_j-shifts stay inside)."""
        return itertools.takewhile(
            lambda a: degree(a) <= self.N - margin, self.indices
        )

    @functools.cached_property
    def array(self) -> np.ndarray:
        """The indices as a read-only (m, d) integer array, in graded order."""
        out = np.array(self.indices, dtype=np.int64).reshape(len(self), self.d)
        out.flags.writeable = False
        return out


@functools.lru_cache(maxsize=32)
def _truncation(d: int, top_degree: int) -> Truncation:
    """The Truncation of (d, top_degree), built once: families, weight systems
    and operators of one shape share it (it is never mutated)."""
    return Truncation(d, top_degree)
