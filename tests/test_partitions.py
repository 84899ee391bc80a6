from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subrings.partitions import (
    Composition,
    Partition,
    composition_count,
    compositions,
    partitions_of,
)


def test_conjugate_examples():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition(()).conjugate() == Partition(())
    # homocyclic type: (t,...,t) with n-1 copies flips to n-1 repeated t times
    assert Partition((4, 4, 4)).conjugate() == Partition((3, 3, 3, 3))


@given(st.lists(st.integers(1, 8), max_size=6))
def test_conjugate_involution(parts):
    lam = Partition(sorted(parts, reverse=True))
    assert lam.conjugate().conjugate() == lam


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_containment():
    assert Partition((3, 2)).contains(Partition((2, 2)))
    assert not Partition((3, 2)).contains(Partition((4,)))
    assert not Partition((3, 2)).contains(Partition((1, 1, 1)))


def test_partitions_of_bounds():
    got = sorted(p.parts for p in partitions_of(4, max_part=2, max_length=3))
    assert got == [(2, 1, 1), (2, 2)]
    assert [p.parts for p in partitions_of(0)] == [()]
    # bounds enforced during generation
    assert all(
        max(p.parts) <= 3 and len(p) <= 4
        for p in partitions_of(9, max_part=3, max_length=4)
    )


def test_compositions_examples():
    assert [c.parts for c in compositions(3, 3)] == [(1, 2), (2, 1)]
    assert [c.parts for c in compositions(4, 3)] == [(1, 1, 1)]
    assert list(compositions(3, 1)) == []
    assert sum(1 for _ in compositions(5, 7)) == comb(6, 3) == 20


def test_compositions_lexicographic():
    got = [c.parts for c in compositions(3, 5)]
    assert got == sorted(got)


def test_composition_counts_match_binomial():
    for n in range(2, 9):
        for e in range(0, 21):
            assert sum(1 for _ in compositions(n, e)) == composition_count(n, e)


def test_composition_fields():
    c = Composition((3, 2, 1, 1))
    assert len(c) == 4
    assert c.e == 7
    with pytest.raises(ValueError):
        Composition((1, 0))
    # a non-integral part is refused, not truncated to an integer
    for parts in ((2.5, 1), (1.9, 1), ("2", 1)):
        with pytest.raises(ValueError):
            Composition(parts)
