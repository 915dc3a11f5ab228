import math

import numpy as np
import pytest

import helpers
from multishift import lattice


def test_enumerate_one_dim():
    assert lattice.enumerate_indices(1, 3).tolist() == [[0], [1], [2], [3]]


def test_enumerate_graded_lex():
    assert lattice.enumerate_indices(2, 1).tolist() == [[0, 0], [0, 1], [1, 0]]


def test_enumerate_count():
    assert len(lattice.enumerate_indices(3, 2)) == 10


def test_enumerate_returns_a_read_only_int64_array():
    out = lattice.enumerate_indices(3, 2)
    assert isinstance(out, np.ndarray) and out.shape == (10, 3) and out.dtype == np.int64
    assert not out.flags.writeable


@pytest.mark.parametrize("d,top", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_enumerate_size_and_downward_closure(d, top):
    out = list(map(tuple, lattice.enumerate_indices(d, top).tolist()))
    assert len(out) == math.comb(top + d, d)
    position = {a: i for i, a in enumerate(out)}
    for alpha in out:
        for j in range(d):
            if alpha[j] > 0:
                below = helpers.shifted(alpha, j, -1)
                assert below in position
                assert position[below] < position[alpha]


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lattice.enumerate_indices(0, 3)
    with pytest.raises(ValueError):
        lattice.enumerate_indices(2, -1)


def test_path_of_zero_is_empty():
    assert lattice.monotone_path((0, 0)) == []


def test_path_single_coordinate():
    assert lattice.monotone_path((2, 0)) == [((0, 0), 0), ((1, 0), 0)]


def test_path_canonical_order():
    assert lattice.monotone_path((1, 2)) == [((0, 0), 0), ((1, 0), 1), ((1, 1), 1)]


def test_reverse_path_order():
    assert helpers.reverse_monotone_path((1, 2)) == [
        ((0, 0), 1), ((0, 1), 1), ((0, 2), 0),
    ]


@pytest.mark.parametrize("alpha", [(0,), (3,), (2, 1), (1, 0, 4), (2, 2, 2)])
def test_path_lengths_and_endpoints(alpha):
    for path in (lattice.monotone_path(alpha), helpers.reverse_monotone_path(alpha)):
        assert len(path) == sum(alpha)
        here = tuple(0 for _ in alpha)
        for beta, j in path:
            assert beta == here
            here = helpers.shifted(here, j)
        assert here == alpha


def test_truncation_membership_and_position():
    trunc = lattice.Truncation(2, 3)
    assert len(trunc) == 10
    assert (1, 2) in trunc and (2, 2) not in trunc
    assert trunc.position((0, 0)) == 0
    assert helpers.interior(trunc) == list(lattice.Truncation(2, 2))
    assert np.array_equal(trunc.array[:len(lattice.Truncation(2, 2))],
                          lattice.enumerate_indices(2, 2))


def test_truncations_are_built_once_per_shape():
    trunc = lattice._truncation(3, 4)
    assert lattice._truncation(3, 4) is trunc
    assert lattice._truncation(2, 4) is not trunc
    assert trunc == lattice.Truncation(3, 4)
    assert trunc.array.tolist() == [list(a) for a in trunc]
    assert not trunc.array.flags.writeable


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("top", [0, 1, 2, 5])
def test_neighbour_maps_match_positions(d, top):
    trunc = lattice.Truncation(d, top)
    interior = helpers.interior(trunc)
    assert trunc.raise_map.shape == (d, len(interior))
    for j in range(d):
        assert trunc.raise_map[j].tolist() == [
            trunc.position(helpers.shifted(alpha, j)) for alpha in interior]
    coords, below = trunc.parents
    assert coords.shape == below.shape == (len(trunc),)
    assert (coords[0], below[0]) == (0, 0)
    for k, alpha in enumerate(list(trunc)[1:], 1):
        j = max(i for i in range(d) if alpha[i])
        assert (coords[k], below[k]) == (j, trunc.position(helpers.shifted(alpha, j, -1)))
    for arr in (trunc.raise_map, coords, below):
        assert not arr.flags.writeable


def test_simplex_size_is_zero_below_degree_zero():
    assert [lattice.simplex_size(3, top) for top in (-2, -1, 0, 2)] == [0, 0, 1, 10]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("top", [0, 1, 2, 5])
def test_ranks_follow_the_graded_order(d, top):
    trunc = lattice.Truncation(d, top)
    assert np.array_equal(trunc.ranks(trunc.array), np.arange(len(trunc)))
    assert [trunc.position(alpha) for alpha in trunc] == list(range(len(trunc)))


def test_ranks_follow_the_graded_order_at_degree_64():
    trunc = lattice.Truncation(3, 64)
    assert np.array_equal(trunc.ranks(trunc.array), np.arange(len(trunc)))


@pytest.mark.parametrize("alpha", [(0, 4), (4, 0), (2, 2), (-1, 0), (0, -1), (0, 0, 0), (0,),
                                   (), (10**30, 0), (0, 10**30), (2**63, 0), (-10**30, 0),
                                   (0.5, 0), (float("nan"), 0)],
                         ids=["degree-N+1-last", "degree-N+1-first", "degree-N+1-middle",
                              "negative-first", "negative-last", "too-long", "too-short",
                              "empty", "past-int64-first", "past-int64-last", "2**63",
                              "negative-past-int64", "fraction", "nan"])
def test_indices_outside_rank_minus_one(alpha):
    trunc = lattice.Truncation(2, 3)
    assert trunc.ranks([alpha]).tolist() == [-1]
    assert alpha not in trunc
    with pytest.raises(KeyError):
        trunc.position(alpha)


def test_ranks_of_a_mixed_batch():
    trunc = lattice.Truncation(2, 3)
    alphas = [(1, 2), (10**30, 0), (0, 0), (0, 4), (3, 0), (-1, 1)]
    assert trunc.ranks(alphas).tolist() == [7, -1, 0, -1, 9, -1]
    # as a dict of tuples did: equal values are the same index
    assert trunc.ranks([(1.0, 2.0), (True, False)]).tolist() == [7, 2]
    assert trunc.ranks([]).tolist() == []


def test_alpha_is_a_tuple_of_python_ints():
    trunc = lattice.Truncation(3, 4)
    for k in (0, 7, len(trunc) - 1):
        alpha = trunc.alpha(k)
        assert type(alpha) is tuple and all(type(a) is int for a in alpha)
        assert trunc.position(alpha) == k
    assert str(trunc.alpha(1)) == "(0, 0, 1)"
    assert all(type(a) is int for alpha in trunc for a in alpha)


@pytest.mark.parametrize("d,top", [(1, 0), (1, 9), (3, 0), (3, 6), (5, 4)])
def test_pascal_table_holds_binomials(d, top):
    table = lattice.Truncation(d, top)._pascal
    assert table.shape == (top + 1, d + 1) and table.dtype == np.int64
    assert table.tolist() == [[math.comb(x + k, k) for k in range(d + 1)]
                              for x in range(top + 1)]
    assert table.max() == len(lattice.Truncation(d, top))
