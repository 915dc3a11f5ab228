import math

import pytest

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
                below = lattice.shifted(alpha, j, -1)
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
    assert lattice.reverse_monotone_path((1, 2)) == [
        ((0, 0), 1), ((0, 1), 1), ((0, 2), 0),
    ]


@pytest.mark.parametrize("alpha", [(0,), (3,), (2, 1), (1, 0, 4), (2, 2, 2)])
def test_path_lengths_and_endpoints(alpha):
    for path in (lattice.monotone_path(alpha), lattice.reverse_monotone_path(alpha)):
        assert len(path) == sum(alpha)
        here = tuple(0 for _ in alpha)
        for beta, j in path:
            assert beta == here
            here = lattice.shifted(here, j)
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
