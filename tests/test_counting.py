"""Frozen expected values here were computed with the unpruned exhaustive
enumerator and cross-checked against an independent subgroup-closure scan
of (Z/p^e)^n before being committed."""

import pytest

from subrings.counting import (
    InterpolationMismatch,
    ResourceLimitError,
    count_by_diagonal,
    count_irreducible,
    count_subrings,
    interpolate_count,
    recurrence_f,
)
from subrings.partitions import compositions
from subrings.polyp import PolyP


def test_rank_one_and_two():
    assert count_subrings(1, 0, 5) == 1
    assert count_subrings(1, 3, 5) == 0
    for p in (2, 3, 5):
        for e in range(0, 9):
            assert count_subrings(2, e, p) == 1


def test_rank_three_values():
    assert [count_subrings(3, e, 2) for e in range(6)] == [1, 3, 4, 6, 10, 12]
    assert [count_subrings(3, e, 3) for e in range(6)] == [1, 3, 4, 7, 13, 16]
    assert count_subrings(3, 3, 5) == 9


def test_rank_four_values():
    assert [count_subrings(4, e, 2) for e in range(5)] == [1, 6, 13, 25, 50]
    assert [count_subrings(4, e, 3) for e in range(4)] == [1, 6, 13, 29]


def test_rank_five_first_layer():
    # gluing a single pair mod p: one subring per unordered pair
    assert count_subrings(5, 1, 2) == 10


def test_irreducible_counts():
    assert count_irreducible(4, 3, 5) == 1
    assert count_irreducible(4, 4, 3) == 13
    assert count_irreducible(3, 1, 2) == 0
    assert [count_irreducible(3, e, 2) for e in (2, 3, 4)] == [1, 3, 7]
    assert [count_irreducible(3, e, 3) for e in (2, 3, 4)] == [1, 4, 10]


def test_count_by_diagonal():
    assert count_by_diagonal((2, 1), 3) == 3
    assert count_by_diagonal((1, 2), 3) == 1
    assert count_by_diagonal((1, 1, 1), 7) == 1
    assert count_by_diagonal((2, 1, 2, 1, 2), 2) >= 8
    # cross-check g_3(p^3) = sum over the two diagonals = p + 1
    assert count_by_diagonal((2, 1), 5) + count_by_diagonal((1, 2), 5) == 6


def test_pruned_equals_unpruned():
    for p in (2, 3):
        for n in (2, 3):
            for e in range(0, 4):
                assert count_subrings(n, e, p, pruned=False) == count_subrings(n, e, p)
    assert count_subrings(4, 2, 2, pruned=False) == count_subrings(4, 2, 2)
    for n, e, p in ((4, 3, 3), (4, 4, 2), (5, 3, 2)):
        assert count_subrings(n, e, p, pruned=False) == count_subrings(n, e, p)
    for alpha in (
        (2, 1), (1, 2), (2, 2), (3, 1),
        (2, 1, 1), (1, 2, 1), (2, 2, 1), (3, 2, 1), (2, 1, 1, 1),
    ):
        for p in (2, 3):
            assert count_by_diagonal(alpha, p, pruned=False) == count_by_diagonal(alpha, p)


def test_node_budget():
    with pytest.raises(ResourceLimitError) as err:
        count_subrings(4, 4, 3, node_budget=50)
    assert err.value.budget == 50
    assert err.value.nodes > 50
    assert err.value.partial_count >= 0
    assert "count_subrings" in str(err.value)


def test_recurrence_examples():
    assert recurrence_f(2, 3, 2) == 1
    assert recurrence_f(3, 0, 5) == 1
    assert recurrence_f(3, 2, 2) == count_subrings(3, 2, 2)


def test_recurrence_matches_enumeration():
    for n in range(1, 5):
        for e in range(0, 5):
            for p in (2, 3):
                assert recurrence_f(n, e, p) == count_subrings(n, e, p)


def test_recurrence_matches_enumeration_rank5():
    # rank 5 is reachable for small exponents only
    for e in range(0, 3):
        assert recurrence_f(5, e, 2) == count_subrings(5, e, 2)


def test_interpolate_quadratic():
    poly = interpolate_count(4, 5, (2, 3, 5, 7), 2, irreducible=True)
    assert poly == PolyP([1, 1, 7])
    assert poly.degree == 2


def test_interpolate_constant_rank2():
    poly = interpolate_count(2, 6, (2, 3, 5), 0)
    assert poly == PolyP([1])


def test_interpolate_mismatch_report():
    out = interpolate_count(4, 5, (2, 3, 5, 7), 1, irreducible=True)
    assert isinstance(out, InterpolationMismatch)
    assert out.reason == "degree_exceeds_cap"
    assert out.counts == (31, 67, 181, 351)


def test_interpolate_needs_enough_primes():
    with pytest.raises(ValueError):
        interpolate_count(4, 5, (2, 3, 5), 2, irreducible=True)


def test_compositions_drive_irreducible_sum():
    p, n, e = 3, 4, 5
    total = sum(count_by_diagonal(a, p) for a in compositions(n, e))
    assert total == count_irreducible(n, e, p) == 67


def test_total_dominates_irreducible():
    for n in (2, 3, 4):
        for e in range(0, 7):
            for p in (2, 3):
                assert count_subrings(n, e, p) >= count_irreducible(n, e, p), (n, e, p)


def test_interpolate_rank5_degree_four():
    poly = interpolate_count(5, 6, (2, 3, 5, 7, 11, 13), 4, irreducible=True)
    assert poly == PolyP([1, 1, 2, 11, 1])
    assert poly.degree == 4


@pytest.mark.slow
def test_interpolate_rank5_exponent_seven_degree_four():
    # the degree stays 4 one exponent further up
    poly = interpolate_count(5, 7, (2, 3, 5, 7, 11, 13), 4, irreducible=True)
    assert poly == PolyP([1, 1, 6, 21, 15])
    assert poly.degree == 4
