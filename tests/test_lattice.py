import math

import pytest

import helpers
from multishift import lattice


def test_enumerate_one_dim():
    assert lattice.enumerate_indices(1, 3) == [(0,), (1,), (2,), (3,)]


def test_enumerate_graded_lex():
    assert lattice.enumerate_indices(2, 1) == [(0, 0), (0, 1), (1, 0)]


def test_enumerate_count():
    assert len(lattice.enumerate_indices(3, 2)) == 10


@pytest.mark.parametrize("d,top", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_enumerate_size_and_downward_closure(d, top):
    out = lattice.enumerate_indices(d, top)
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
    assert list(trunc.interior()) == lattice.enumerate_indices(2, 2)


def test_truncations_are_built_once_per_shape():
    trunc = lattice._truncation(3, 4)
    assert lattice._truncation(3, 4) is trunc
    assert lattice._truncation(2, 4) is not trunc
    assert trunc == lattice.Truncation(3, 4)
    assert trunc.array.tolist() == [list(a) for a in trunc.indices]
    assert not trunc.array.flags.writeable


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("top", [0, 1, 2, 5])
def test_neighbour_maps_match_positions(d, top):
    trunc = lattice.Truncation(d, top)
    interior = list(trunc.interior())
    assert trunc.raise_map.shape == (d, len(interior))
    for j in range(d):
        assert trunc.raise_map[j].tolist() == [
            trunc.position(helpers.shifted(alpha, j)) for alpha in interior]
    coords, below = trunc.parents
    assert coords.shape == below.shape == (len(trunc),)
    assert (coords[0], below[0]) == (0, 0)
    for k, alpha in enumerate(trunc.indices[1:], 1):
        j = max(i for i in range(d) if alpha[i])
        assert (coords[k], below[k]) == (j, trunc.position(helpers.shifted(alpha, j, -1)))
    for arr in (trunc.raise_map, coords, below):
        assert not arr.flags.writeable


def test_simplex_size_is_zero_below_degree_zero():
    assert [lattice.simplex_size(3, top) for top in (-2, -1, 0, 2)] == [0, 0, 1, 10]
