"""Frozen expected values here were computed with the unpruned exhaustive
enumerator and cross-checked against an independent subgroup-closure scan
of (Z/p^e)^n before being committed.

The production counters (congruence solve and recurrence) are checked
against the HNF scan oracles, never against themselves."""

import pytest

from subrings.closure import count_solutions, extract_conditions
from subrings.counting import (
    InterpolationMismatch,
    ResourceLimitError,
    count_by_diagonal,
    count_irreducible,
    count_subrings,
    interpolate_count,
    recurrence_f,
    scan_by_diagonal,
    scan_subrings,
)
from subrings.hnf import HNFMatrix, hnf_from_generators
from subrings.partitions import compositions
from subrings.paths import family_matrices
from subrings.polyp import PolyP
from subrings.subgroups import brute_force_subgroups


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
                assert scan_subrings(n, e, p, pruned=False) == scan_subrings(n, e, p)
    for n, e, p in ((4, 2, 2), (4, 3, 3), (4, 4, 2), (5, 3, 2)):
        unpruned = scan_subrings(n, e, p, pruned=False)
        assert unpruned == scan_subrings(n, e, p) == count_subrings(n, e, p)
    for alpha in (
        (2, 1), (1, 2), (2, 2), (3, 1),
        (2, 1, 1), (1, 2, 1), (2, 2, 1), (3, 2, 1), (2, 1, 1, 1),
    ):
        for p in (2, 3):
            unpruned = scan_by_diagonal(alpha, p, pruned=False)
            assert unpruned == scan_by_diagonal(alpha, p) == count_by_diagonal(alpha, p)


def irreducible_box(parts, p):
    """Size of the box the unpruned irreducible scan runs over: entry
    (i, j), i < j, of columns 1..n-2 (0-based) takes p^(alpha_i - 1)
    values."""
    m = len(parts)
    return p ** sum((a - 1) * (m - 1 - i) for i, a in enumerate(parts))


@pytest.mark.slow
def test_solve_matches_scan_on_every_small_diagonal():
    """Differential grid: the congruence solve against the pruned scan on
    every diagonal with n <= 6, e <= 8 and p in {2, 3, 5} whose box is at
    most 3 * 10^5, and against the unpruned scan where the box is at most
    2000."""
    checked = unpruned = 0
    for n in range(2, 7):
        for e in range(n - 1, 9):
            for alpha in compositions(n, e):
                for p in (2, 3, 5):
                    box = irreducible_box(alpha.parts, p)
                    if box > 3 * 10**5:
                        continue
                    solved = count_by_diagonal(alpha, p)
                    assert solved == scan_by_diagonal(alpha, p), (alpha.parts, p)
                    checked += 1
                    if box <= 2000:
                        assert solved == scan_by_diagonal(alpha, p, pruned=False)
                        unpruned += 1
    assert (checked, unpruned) == (622, 517)


def test_node_budget():
    with pytest.raises(ResourceLimitError) as err:
        count_subrings(4, 6, 3, node_budget=50)
    assert err.value.budget == 50
    assert err.value.nodes > 50
    assert err.value.partial_count >= 0
    assert "count_subrings" in str(err.value)


def smallest_budget(count, *args):
    """The least node budget under which count(*args) succeeds."""
    lo, hi = 0, 1
    while True:
        try:
            count(*args, node_budget=hi)
            break
        except ResourceLimitError:
            lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            count(*args, node_budget=mid)
            hi = mid
        except ResourceLimitError:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("n,e,p", [(4, 5, 2), (4, 4, 3), (4, 6, 3)])
def test_budget_covers_the_whole_call(n, e, p):
    """One budget spans every diagonal of a call, so the call needs at
    least the budgets of its diagonals added up, not their maximum."""
    per_diagonal = [smallest_budget(count_by_diagonal, a.parts, p) for a in compositions(n, e)]
    whole = smallest_budget(count_irreducible, n, e, p)
    assert whole >= sum(per_diagonal)
    assert smallest_budget(count_subrings, n, e, p) >= whole


def test_budget_ignores_the_memo_tables():
    """A budgeted call spends the same nodes whether or not an unbudgeted
    call has filled the module memo tables, and agrees with it."""
    before = smallest_budget(count_subrings, 4, 6, 2)
    exact = count_subrings(4, 6, 2)
    assert smallest_budget(count_subrings, 4, 6, 2) == before
    assert count_subrings(4, 6, 2, node_budget=before) == exact
    with pytest.raises(ResourceLimitError):
        count_subrings(4, 6, 2, node_budget=before - 1)


def test_partial_count_is_a_lower_bound():
    system = extract_conditions((3, 2, 1, 1))
    calls = [
        (count_subrings, (4, 6, 3)),
        (count_subrings, (5, 5, 2)),
        (recurrence_f, (4, 5, 2)),
        (count_irreducible, (4, 6, 3)),
        (count_by_diagonal, ((3, 2, 1, 1), 3)),
        (count_solutions, (system, 3)),
        (scan_subrings, (4, 4, 3)),
        (scan_by_diagonal, ((3, 2, 1), 3)),
        (brute_force_subgroups, (4, 2, 3, 2)),
    ]
    for count, args in calls:
        exact = count(*args)
        partials = []
        for budget in range(0, 400, 7):
            try:
                count(*args, node_budget=budget)
            except ResourceLimitError as err:
                partials.append(err.partial_count)
                assert err.nodes == budget + 1
                assert 0 <= err.partial_count <= exact, (count.__name__, args, budget)
        # an overrun reports what it counted so far
        assert max(partials, default=0) > 0, (count.__name__, args)
    # the unpruned scan reports its partial count the same way
    exact = scan_subrings(3, 3, 3)
    for budget in range(0, 60, 3):
        try:
            scan_subrings(3, 3, 3, node_budget=budget, pruned=False)
        except ResourceLimitError as err:
            assert 0 <= err.partial_count <= exact


@pytest.mark.parametrize("p", [4, 1, 0, -2])
def test_non_prime_rejected(p):
    system = extract_conditions((2, 1))
    calls = [
        lambda: count_subrings(3, 3, p),
        lambda: count_irreducible(3, 3, p),
        lambda: count_by_diagonal((2, 1), p),
        lambda: recurrence_f(3, 3, p),
        lambda: scan_subrings(3, 3, p),
        lambda: scan_by_diagonal((2, 1), p),
        lambda: count_solutions(system, p),
        lambda: brute_force_subgroups(3, 1, 1, p),
        lambda: interpolate_count(2, 4, (2, 3, p), 0),
        lambda: HNFMatrix.from_rows(p, [[1]]),
        lambda: hnf_from_generators(p, [(1, 0), (0, 1)]),
        lambda: list(family_matrices((2, 1), 2, 1, p)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="prime"):
            call()


def test_recurrence_examples():
    assert recurrence_f(2, 3, 2) == 1
    assert recurrence_f(3, 0, 5) == 1
    assert recurrence_f(3, 2, 2) == scan_subrings(3, 2, 2)


def test_recurrence_matches_enumeration():
    # recurrence_f and count_subrings run the same code
    for n in range(1, 6):
        for e in range(0, 5):
            for p in (2, 3):
                expected = scan_subrings(n, e, p)
                assert recurrence_f(n, e, p) == count_subrings(n, e, p) == expected, (n, e, p)


def test_recurrence_matches_enumeration_rank5():
    # rank 5 is reachable for small exponents only
    for e in range(0, 3):
        assert recurrence_f(5, e, 2) == scan_subrings(5, e, 2)


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


def test_interpolate_budget_covers_every_prime():
    """The primes need 88 + 297 + 1705 + 5873 nodes; one budget pays for
    all of them, not for each in turn."""
    args = (4, 6, (2, 3, 5, 7), 2)
    with pytest.raises(ResourceLimitError) as err:
        interpolate_count(*args, irreducible=True, node_budget=7962)
    assert err.value.nodes == 7963
    out = interpolate_count(*args, irreducible=True, node_budget=7963)
    assert out == interpolate_count(*args, irreducible=True)
    assert out.counts == (67, 157, 481, 1037)


def test_interpolate_needs_enough_primes():
    with pytest.raises(ValueError):
        interpolate_count(4, 5, (2, 3, 5), 2, irreducible=True)


def test_negative_exponent_rejected():
    calls = [
        lambda: count_subrings(2, -1, 2),
        lambda: count_irreducible(2, -3, 2),
        lambda: interpolate_count(3, -2, (2, 3, 5), 0, irreducible=True),
        lambda: interpolate_count(3, -2, (2, 3, 5), 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="e >= 0"):
            call()


def test_interpolate_rejects_negative_degree_cap():
    # was a degree_exceeds_cap mismatch: no fit has degree below zero
    for irreducible in (False, True):
        with pytest.raises(ValueError, match="degree_cap"):
            interpolate_count(3, 2, (2, 3, 5), -1, irreducible=irreducible)


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
