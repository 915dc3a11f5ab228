"""Multi-index bookkeeping: graded simplex truncations of N^d and lattice paths.

A truncation holds every alpha in N^d with total degree <= N (a simplex, not a
box: the kernel families downstream depend on the degree only) as the rows of
one read-only (m, d) int64 array, by ascending degree with lexicographic
tie-breaking, which makes it downward closed. Ranks come from a counting
formula; an index is a tuple of Python ints only where it is iterated or named.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

MultiIndex = tuple


def simplex_size(d: int, top_degree: int) -> int:
    """Number of alpha in N^d with |alpha| <= top_degree; 0 when top_degree < 0."""
    return math.comb(top_degree + d, d) if top_degree >= 0 else 0


def enumerate_indices(d: int, top_degree: int) -> np.ndarray:
    """All alpha in N^d with |alpha| <= top_degree, graded-lexicographic, as the
    rows of a read-only (m, d) int64 array.

    Ascending total degree, ties broken lexicographically ascending; m is
    binomial(top_degree + d, d). Built without recursion: the simplex is
    grown one coordinate at a time in lexicographic order (every prefix in
    turn, followed by each value its remaining degree allows), then stably
    sorted by degree.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if top_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {top_degree}")
    idx = np.arange(top_degree + 1, dtype=np.int64)[:, None]
    for _ in range(d - 1):
        room = top_degree + 1 - idx.sum(axis=1)  # values the next coordinate may take
        starts = np.cumsum(room) - room
        idx = np.column_stack((np.repeat(idx, room, axis=0),
                               np.arange(room.sum()) - np.repeat(starts, room)))
    idx = idx[np.argsort(idx.sum(axis=1), kind="stable")]
    idx.flags.writeable = False
    return idx


def monotone_path(alpha: MultiIndex) -> list[tuple[MultiIndex, int]]:
    """Canonical coordinate-major staircase from 0 to alpha.

    Each step (beta, j) adds e_j at the lattice point beta; coordinate 0 is
    exhausted first, then coordinate 1, and so on. |alpha| steps total.
    """
    steps, here = [], [0] * len(alpha)
    for j, a_j in enumerate(alpha):
        for _ in range(a_j):
            steps.append((tuple(here), j))
            here[j] += 1
    return steps


@dataclass(frozen=True)
class Truncation:
    """The finite window |alpha| <= N onto N^d; iterating yields its indices in
    graded order as tuples, and a rank is computed, never looked up."""

    d: int
    N: int
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "array", enumerate_indices(self.d, self.N))

    def __len__(self) -> int:
        return len(self.array)

    def __contains__(self, alpha) -> bool:
        return bool(self.ranks([alpha])[0] >= 0)

    def __iter__(self):
        return map(tuple, self.array.tolist())

    def alpha(self, k) -> MultiIndex:
        """The index of rank k as a tuple of Python ints, for reports and errors."""
        return tuple(self.array[k].tolist())

    def position(self, alpha) -> int:
        """Rank of alpha in the graded order; KeyError when outside."""
        if (k := int(self.ranks([alpha])[0])) < 0:
            raise KeyError(tuple(alpha))
        return k

    @functools.cached_property
    def _pascal(self) -> np.ndarray:
        """(N + 1, d + 1) int64: [x, k] = C(x + k, k), the number of beta in N^k with
        |beta| <= x. No entry exceeds [N, d] = C(N + d, d) = m, the row count of
        array, so int64 cannot overflow."""
        return np.array([[math.comb(x + k, k) for k in range(self.d + 1)]
                         for x in range(self.N + 1)], dtype=np.int64)

    def ranks(self, alphas) -> np.ndarray:
        """Graded rank of each row of alphas, (k, d) integers of any size; -1 for
        a row outside (a negative coordinate, degree above N, another length).
        With suffix degrees s_i = alpha_i + ... + alpha_{d-1} and P = _pascal, it
        is P(s_0, d) - 1, the indices of degree <= |alpha| but alpha, less, for
        each i >= 1, the P(s_i, d-i) - P(s_i, d-i-1) = C(s_i + d-i-1, d-i) beta of
        degree |alpha| after alpha: beta_{i-1} > alpha_{i-1}, equal before it."""
        a = np.asarray(alphas)  # integers past int64 stay Python ints until ruled out
        if a.ndim != 2 or a.shape[1] != self.d:
            return np.full(len(a), -1)
        inside = ((a >= 0) & (a <= self.N)).all(axis=1)
        b = np.where(inside[:, None], a, 0)
        c = b.astype(np.int64)
        inside &= (c == b).all(axis=1)  # 0.5 is not a coordinate; 1.0 and True are
        s = np.cumsum(c[:, ::-1], axis=1)[:, ::-1]
        inside &= s[:, 0] <= self.N
        s = np.where(inside[:, None], s, 0)
        p, k = self._pascal, np.arange(self.d - 1, 0, -1)
        after = (p[s[:, 1:], k] - p[s[:, 1:], k - 1]).sum(axis=1)
        return np.where(inside, p[s[:, 0], self.d] - 1 - after, -1)

    @functools.cached_property
    def raise_map(self) -> np.ndarray:
        """Read-only (d, k): [j, r] is the rank of alpha + e_j, alpha the interior
        index of rank r. alpha -> alpha + e_j keeps the graded order and maps the
        interior onto the indices with alpha_j > 0, so row j lists those."""
        # contiguous copy: nonzero's index arrays are views of one (nnz, 2) buffer
        out = np.ascontiguousarray(np.nonzero(self.array.T)[1]).reshape(self.d, -1)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def parents(self) -> tuple:
        """Read-only (coords, below), each (m,): the canonical staircase parent of
        alpha != 0, its trailing nonzero coordinate j and the rank of alpha - e_j;
        row 0 holds (0, 0)."""
        coords, below = np.zeros((2, len(self)), dtype=np.intp)
        for j, up in enumerate(self.raise_map):  # ascending j: the last write wins
            coords[up], below[up] = j, np.arange(len(up))
        coords.flags.writeable = below.flags.writeable = False
        return coords, below


def _last_entries(slots: np.ndarray, size: int) -> np.ndarray:
    """(size,) intp: per slot 0..size-1 the last entry i with slots[i] equal to
    it, or -1 when there is none; entries with other slots are ignored. With
    slots from Truncation.ranks, this is the rule for an index listed more
    than once: its last entry wins."""
    out = np.full(size, -1, dtype=np.intp)
    keep = np.flatnonzero((slots >= 0) & (slots < size))
    np.maximum.at(out, slots[keep], keep)  # unlike fancy assignment, in any order
    return out


@functools.lru_cache(maxsize=32)
def _truncation(d: int, top_degree: int) -> Truncation:
    """The Truncation of (d, top_degree), built once: families, weight systems
    and operators of one shape share it (it is never mutated)."""
    return Truncation(d, top_degree)
