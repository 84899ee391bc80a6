import itertools
import re
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subrings.closure import extract_conditions
from subrings.counting import count_by_diagonal, scan_by_diagonal
from subrings.partitions import (
    bounded_compositions,
    composition,
    composition_count,
    compositions,
    conjugate,
    partition,
    partitions_of,
)
from subrings.paths import family_count, family_matrices, path_from_composition
from subrings.subgroups import stehling_count


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    # homocyclic type: (t,...,t) with n-1 copies flips to n-1 repeated t times
    assert conjugate((4, 4, 4)) == (3, 3, 3, 3)


@given(st.lists(st.integers(1, 8), max_size=6))
def test_conjugate_involution(parts):
    lam = partition(sorted(parts, reverse=True))
    assert conjugate(conjugate(lam)) == lam


def test_partition_validation():
    assert partition([3, 3, 1]) == (3, 3, 1)
    assert partition(()) == ()
    with pytest.raises(ValueError, match="weakly decreasing"):
        partition((1, 2))
    message = "partition requires parts[1] >= 1, got parts[1]=0"
    with pytest.raises(ValueError, match=re.escape(message)):
        partition((2, 0))


@pytest.mark.parametrize(
    "call, args, message",
    [
        (stehling_count, ((2.0,), (1,)), "partition requires an integer parts[0], got 2.0"),
        (stehling_count, ((2,), (1.0,)), "partition requires an integer parts[0], got 1.0"),
        (partition, ((3, 1.0),), "partition requires an integer parts[1], got 1.0"),
        (lambda *a: list(partitions_of(*a)), (4.0,), "partitions_of requires an integer k,"),
        (lambda *a: list(partitions_of(*a)), (4, 2.0), "partitions_of requires an integer max_part,"),
        (lambda *a: list(partitions_of(*a)), (4, 2, 2.0),
         "partitions_of requires an integer max_length,"),
        (lambda *a: list(compositions(*a)), (3.0, 4), "compositions requires an integer n,"),
        (lambda *a: list(compositions(*a)), (3, 4.0), "compositions requires an integer e,"),
        (composition, ((True, 1),), "composition parts must be integers >= 1: (True, 1)"),
        (count_by_diagonal, ((True, 1), 2), "composition parts must be integers >= 1"),
        (scan_by_diagonal, ((True, 1), 2), "composition parts must be integers >= 1"),
        (extract_conditions, ((True, 1),), "composition parts must be integers >= 1"),
    ],
)
def test_shape_entry_points_refuse_non_integers(call, args, message):
    # each used to fail with a TypeError from range or from multiplying a
    # sequence by a float, except (True, 1): it was taken as the
    # composition (1, 1), and both counts returned 1
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (partitions_of, (4.0,), "partitions_of requires an integer k,"),
        (partitions_of, (4, 2, 2.0), "partitions_of requires an integer max_length,"),
        (compositions, (3.0, 4), "compositions requires an integer n,"),
        (compositions, (1, 4), "compositions requires n >= 2"),
    ],
)
def test_shape_generators_refuse_at_the_call(call, args, message):
    # the checks used to run only when the first item was drawn
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)


def test_containment():
    # stehling_count counts subgroups of type nu inside type lam, and
    # refuses a nu that lam does not contain
    assert stehling_count((3, 2), (2, 2)) != 0
    for nu in ((4,), (1, 1, 1)):
        with pytest.raises(ValueError, match="is not contained in"):
            stehling_count((3, 2), nu)
    # both shapes are checked as partitions first
    with pytest.raises(ValueError, match="weakly decreasing"):
        stehling_count((3, 2), (1, 2))


def test_partitions_of_bounds():
    got = sorted(partitions_of(4, max_part=2, max_length=3))
    assert got == [(2, 1, 1), (2, 2)]
    assert list(partitions_of(0)) == [()]
    # bounds enforced during generation
    assert all(
        max(p) <= 3 and len(p) <= 4
        for p in partitions_of(9, max_part=3, max_length=4)
    )


def test_compositions_examples():
    assert list(compositions(3, 3)) == [(1, 2), (2, 1)]
    assert list(compositions(4, 3)) == [(1, 1, 1)]
    assert list(compositions(3, 1)) == []
    assert sum(1 for _ in compositions(5, 7)) == comb(6, 3) == 20
    with pytest.raises(ValueError, match="requires n >= 2"):
        list(compositions(1, 0))


def test_compositions_lexicographic():
    got = list(compositions(3, 5))
    assert got == sorted(got)


def test_composition_order_pinned_against_product():
    """Budget partial counts and the pinned digests depend on the order in
    which diagonals are drawn: both generators must list their tuples in
    the lexicographic order of itertools.product, filtered by the sum."""
    for n in range(2, 8):
        for e in range(0, 11):
            # no part of a composition of e into n-1 parts exceeds e-(n-2)
            box = itertools.product(range(1, e - n + 3), repeat=n - 1)
            assert list(compositions(n, e)) == [c for c in box if sum(c) == e], (n, e)
    for parts in range(0, 7):
        for cap in (0, 1, 2, 3, 5):
            by_total = {}
            for c in itertools.product(range(cap + 1), repeat=parts):
                by_total.setdefault(sum(c), []).append(c)
            for total in range(-1, 11):
                got = list(bounded_compositions(total, parts, cap))
                assert got == by_total.get(total, []), (total, parts, cap)


def test_composition_counts_match_binomial():
    for n in range(2, 9):
        for e in range(0, 21):
            assert sum(1 for _ in compositions(n, e)) == composition_count(n, e)


@pytest.mark.parametrize("args", [(3.0, 4), (3, 4.0), (True, 4.0), (1, 5), (0, 0), (-2, 3)])
def test_composition_count_refuses_what_compositions_refuses(args):
    # (1, 5) used to leak math.comb's "k must be a non-negative integer",
    # and (3.0, 4) raised a TypeError
    with pytest.raises(ValueError) as drawn:
        compositions(*args)
    with pytest.raises(ValueError) as counted:
        composition_count(*args)
    assert str(counted.value) == str(drawn.value).replace("compositions", "composition_count")
    # no composition of e into n-1 parts when e < n-1
    assert composition_count(4, 2) == composition_count(9, 0) == 0


def test_composition_fields():
    assert composition([3, 2, 1, 1]) == (3, 2, 1, 1)
    with pytest.raises(ValueError, match="integers >= 1"):
        composition((1, 0))
    # a non-integral part is refused, not truncated to an integer
    for parts in ((2.5, 1), (1.9, 1), ("2", 1)):
        with pytest.raises(ValueError, match="integers >= 1"):
            composition(parts)


@pytest.mark.parametrize(
    "call, args, value",
    [
        (composition, (3,), 3),
        (partition, (3,), 3),
        (count_by_diagonal, (3, 2), 3),
        (scan_by_diagonal, (3, 2), 3),
        (extract_conditions, (3,), 3),
        (stehling_count, (4, (1,)), 4),
        (stehling_count, ((4,), 1), 1),
        (family_count, (3, 2, 1), 3),
        (lambda *a: list(family_matrices(*a)), (3, 2, 1, 2), 3),
        (path_from_composition, (3, 2, 1), 3),
    ],
)
def test_scalar_for_parts_is_refused_by_name(call, args, value):
    # each used to raise "'int' object is not iterable"
    kind = "partition" if call in (partition, stehling_count) else "composition"
    message = f"{kind} requires parts to be a sequence, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)
