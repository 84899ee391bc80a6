"""Frozen expected values here were computed with the unpruned exhaustive
enumerator and cross-checked against an independent subgroup-closure scan
of (Z/p^e)^n before being committed.

The production counters (congruence solve and recurrence) are checked
against the HNF scan oracles, never against themselves."""

import hashlib
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrings import closure, codegen, counting, limits
from subrings.closure import count_solutions, extract_conditions
from subrings.counting import (
    InterpolationMismatch,
    ResourceLimitError,
    clear_caches,
    count_by_diagonal,
    count_irreducible,
    count_subrings,
    interpolate_count,
    recurrence_f,
    scan_by_diagonal,
    scan_subrings,
)
from subrings.hnf import HNFMatrix, _column_closed, hnf_from_generators, is_closed
from subrings.partitions import bounded_compositions, compositions
from subrings.paths import family_matrices
from subrings.polyp import PolyP, _gaussian_binomial
from subrings.subgroups import (
    brute_force_subgroups,
    count_subgroups_of_order,
    sandwich_subring_audit,
)


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


def scan_outcome(n, e, p, budget):
    """A scan's count, or its overrun as (message, nodes, budget, partial)."""
    try:
        return scan_subrings(n, e, p, budget)
    except ResourceLimitError as err:
        return (str(err), err.nodes, err.budget, err.partial_count)


def test_scan_outcomes_at_every_budget():
    """Every outcome of the pruned scan at each budget from 0 to the node
    total and unbudgeted, by digest.  Pinned while the scan still derived
    the last column from the identity solve and tested its closure."""
    totals = {(3, 3, 3): 47, (4, 4, 2): 338, (4, 3, 3): 322, (5, 3, 2): 494, (4, 5, 2): 820}
    digest = hashlib.sha256()
    for q, total in totals.items():
        for budget in [*range(total + 1), None]:
            digest.update(repr((q, budget, scan_outcome(*q, budget))).encode())
        assert isinstance(scan_outcome(*q, total), int)  # the total suffices
    assert digest.hexdigest() == (
        "94c6cd9fd65baa5cfc658ff9b5ab5322c05be544284b33504da13c54bfde6258"
    )


def test_closed_interior_with_identity_is_closed():
    """The lemma that lets the pruned scan skip the last column: when the
    span of an HNF matrix holds (1,...,1) and every product of two of its
    columns 0..n-2 lies in it, the span is closed.  Checked on every such
    interior with n <= 4, e <= 4, p in {2, 3}: the HNF of those columns
    with (1,...,1) added keeps them, and passes every closure pair."""
    seen = derived = 0
    for p in (2, 3):
        for n in range(2, 5):
            for e in range(5):
                for weak in bounded_compositions(e, n - 1, e):
                    diag = [p**t for t in weak] + [1]
                    slots = [(i, j) for j in range(1, n - 1) for i in range(j)]
                    for vals in itertools.product(*(range(diag[i]) for i, _ in slots)):
                        rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
                        for (i, j), v in zip(slots, vals):
                            rows[i][j] = v
                        if not all(_column_closed(rows, j) for j in range(n - 1)):
                            continue
                        columns = [[rows[i][j] for i in range(n)] for j in range(n - 1)]
                        A = hnf_from_generators(p, columns + [[1] * n])
                        assert [[A.rows[i][j] for i in range(n)] for j in range(n - 1)] == columns
                        assert is_closed(A)
                        seen += 1
                        derived += any(row[-1] != 1 for row in A.rows)
    assert seen == 274 and derived > 0


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
                    box = irreducible_box(alpha, p)
                    if box > 3 * 10**5:
                        continue
                    solved = count_by_diagonal(alpha, p)
                    assert solved == scan_by_diagonal(alpha, p), (alpha, p)
                    checked += 1
                    if box <= 2000:
                        assert solved == scan_by_diagonal(alpha, p, pruned=False)
                        unpruned += 1
    assert (checked, unpruned) == (622, 517)


@st.composite
def small_diagonals(draw):
    n = draw(st.integers(2, 5))
    e = draw(st.integers(n - 1, 6))
    return draw(st.sampled_from(list(compositions(n, e))))


@given(small_diagonals(), st.sampled_from((2, 3, 5)), st.none() | st.integers(0, 2000))
@settings(max_examples=150, deadline=None)
def test_budgeted_solve_matches_budgeted_scan(parts, p, budget):
    """Under the same node budget, the solve and the scan each return the
    exact count or overrun with a partial count that does not exceed it."""
    exact = count_by_diagonal(parts, p)
    for count in (count_by_diagonal, scan_by_diagonal):
        try:
            assert count(parts, p, node_budget=budget) == exact, count.__name__
        except ResourceLimitError as err:
            assert budget is not None
            assert 0 <= err.partial_count <= exact, count.__name__


# (alpha, p) whose unpruned box has at most 2000 entries: 164 cases
SMALL_BOXES = [
    (alpha, p)
    for n in range(2, 6) for e in range(n - 1, 7) for alpha in compositions(n, e)
    for p in (2, 3, 5) if irreducible_box(alpha, p) <= 2000
]


@given(st.sampled_from(SMALL_BOXES), st.none() | st.integers(0, 800))
@settings(max_examples=200, deadline=None)
def test_budgeted_unpruned_scan_matches_pruned_scan(case, budget):
    """Under the same node budget, the unpruned and the pruned scan each
    return the exact count or overrun with a partial count that does not
    exceed it."""
    parts, p = case
    exact = scan_by_diagonal(parts, p)
    for pruned in (False, True):
        try:
            assert scan_by_diagonal(parts, p, node_budget=budget, pruned=pruned) == exact
        except ResourceLimitError as err:
            assert budget is not None
            assert 0 <= err.partial_count <= exact, pruned


@given(
    st.sampled_from([(n, e, p) for n in range(1, 5) for e in range(6) for p in (2, 3, 5)
                     if p**e <= 625]),
    # the recurrence needs at most 63 nodes on these cases, the scan 14201
    st.none() | st.integers(0, 100) | st.integers(0, 16000),
)
@settings(max_examples=200, deadline=None)
def test_budgeted_recurrence_matches_budgeted_scan(case, budget):
    """Under the same node budget, the recurrence and the HNF scan each
    return f_n(p^e) or overrun with a partial count that does not exceed
    it."""
    exact = count_subrings(*case)
    for count in (count_subrings, scan_subrings):
        try:
            assert count(*case, node_budget=budget) == exact, count.__name__
        except ResourceLimitError as err:
            assert budget is not None
            assert 0 <= err.partial_count <= exact, count.__name__


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
    per_diagonal = [smallest_budget(count_by_diagonal, a, p) for a in compositions(n, e)]
    whole = smallest_budget(count_irreducible, n, e, p)
    assert whole >= sum(per_diagonal)
    assert smallest_budget(count_subrings, n, e, p) >= whole


def test_budget_ignores_the_memo_tables():
    """A budgeted call spends the same nodes whether or not an unbudgeted
    call of the same count has run before it, and agrees with it."""
    before = smallest_budget(count_subrings, 4, 6, 2)
    exact = count_subrings(4, 6, 2)
    assert smallest_budget(count_subrings, 4, 6, 2) == before
    assert count_subrings(4, 6, 2, node_budget=before) == exact
    with pytest.raises(ResourceLimitError):
        count_subrings(4, 6, 2, node_budget=before - 1)


def _overrun(count, *args):
    """(nodes, partial count) of the overrun that count(*args) raises."""
    with pytest.raises(ResourceLimitError) as info:
        count(*args)
    return info.value.nodes, info.value.partial_count


def test_unbudgeted_call_keeps_no_state(monkeypatch):
    """An unbudgeted call runs under the default limit with tables of its
    own: it overruns the same way fresh, after another call of the same
    recurrence terms has overrun, and when repeated."""
    monkeypatch.setattr(limits, "DEFAULT_NODE_BUDGET", 200)
    assert _overrun(count_subrings, 4, 6, 3) == (201, 199)
    irreducible = _overrun(count_irreducible, 4, 6, 3)
    assert _overrun(count_subrings, 4, 6, 3) == (201, 199)
    assert _overrun(count_subrings, 4, 6, 3) == (201, 199)
    assert _overrun(count_irreducible, 4, 6, 3) == irreducible
    diagonal = _overrun(count_by_diagonal, (3, 2, 1, 1), 3)
    assert _overrun(count_by_diagonal, (3, 2, 1, 1), 3) == diagonal


def test_clear_caches_recompiles(monkeypatch):
    # every plan compiled: the interpreted tier would compile nothing here
    monkeypatch.setattr(closure, "_INTERPRETED_VALUES", 0)
    exact = count_irreducible(4, 5, 3)
    misses = codegen._compiled_function.cache_info().misses
    assert count_irreducible(4, 5, 3) == exact
    # a second identical call solves again but compiles nothing new
    assert codegen._compiled_function.cache_info().misses == misses
    clear_caches()
    assert codegen._compiled_function.cache_info().currsize == 0
    assert closure._mono_mul.cache_info().currsize == 0
    assert _gaussian_binomial.cache_info().currsize == 0
    assert count_irreducible(4, 5, 3) == exact
    assert codegen._compiled_function.cache_info().misses > 0


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


def test_empty_diagonal_counts_one():
    # the empty diagonal () is in the domain: it counts the one 1 x 1
    # matrix [1], g_1(p^0) = 1, the recurrence's j = 1 convention
    for p in (2, 3, 5):
        assert count_by_diagonal((), p) == scan_by_diagonal((), p) == 1
        assert count_solutions(extract_conditions(()), p) == 1


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


def test_interpolate_builds_each_skeleton_once(monkeypatch):
    """g_4(p^5) at four primes extracts and plans the prime-independent
    part of each of its six diagonals once, and plans it at each prime."""
    built, planned = [], []
    skeleton, at_prime = counting._skeleton, counting._at_prime

    def recording_skeleton(system):
        built.append(system.alpha)
        return skeleton(system)

    def recording_at_prime(sk, p):
        planned.append(p)
        return at_prime(sk, p)

    monkeypatch.setattr(counting, "_skeleton", recording_skeleton)
    monkeypatch.setattr(counting, "_at_prime", recording_at_prime)
    primes = (2, 3, 5, 7)
    assert interpolate_count(4, 5, primes, 2, irreducible=True) == PolyP([1, 1, 7])
    assert sorted(built) == sorted(compositions(4, 5))
    assert sorted(planned) == sorted(primes * len(built))


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


def test_non_integer_arguments_rejected():
    # a float rank used to raise TypeError, a float prime to give a float
    cases = [
        (lambda: count_subrings(3.0, 3, 2), "count_subrings requires an integer n"),
        (lambda: count_subrings(3, 3.0, 2), "count_subrings requires an integer e"),
        (lambda: count_irreducible(3.0, 3, 2), "count_irreducible requires an integer n"),
        (lambda: interpolate_count(3, 2.0, (2, 3, 5), 0), "requires an integer e"),
        (lambda: count_subrings(3, 3, 2.0), "p must be a prime, got 2.0"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()
    # the oracles used to fail with a TypeError from range or list repetition
    for call, args, arg in (
        (scan_subrings, (3.0, 3, 2), "n"),
        (scan_subrings, (3, 3.0, 2), "e"),
        (brute_force_subgroups, (3.0, 1, 1, 2), "n"),
        (brute_force_subgroups, (3, 1, 1.0, 2), "k"),
        (count_subgroups_of_order, (3, 2.0, 1), "t"),
        (sandwich_subring_audit, (3.0, 4), "n"),
        (sandwich_subring_audit, (3, 4.0), "m"),
    ):
        with pytest.raises(ValueError, match=f"{call.__name__} requires an integer {arg}"):
            call(*args)


def test_negative_node_budget_refused():
    # count_by_diagonal((2, 1), 3, node_budget=-1) used to return 3, as a
    # system with no scanned variable spends nothing
    calls = [
        lambda b: count_by_diagonal((2, 1), 3, b),
        lambda b: count_subrings(1, 0, 2, b),
        lambda b: count_irreducible(3, 3, 2, b),
        lambda b: interpolate_count(2, 4, (2, 3), 0, node_budget=b),
        lambda b: scan_subrings(3, 3, 2, b),
        lambda b: scan_subrings(1, 0, 2, b),
        lambda b: scan_by_diagonal((), 3, b),
        lambda b: brute_force_subgroups(3, 1, 1, 2, b),
        lambda b: sandwich_subring_audit(3, 4, b),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="node_budget must be >= 0, got -1"):
            call(-1)


def test_non_int_node_budget_refused():
    # the first two returned 3 and 6, the scan overran with "budget True"
    calls = [
        (lambda: count_solutions(extract_conditions((2, 1)), 3, 1.5), "got 1.5"),
        (lambda: count_subrings(3, 3, 2, node_budget=2.5), "got 2.5"),
        (lambda: scan_by_diagonal((2, 1), 3, node_budget=True), "got True"),
    ]
    for call, got in calls:
        with pytest.raises(ValueError, match=f"node_budget must be an int, {got}"):
            call()


def test_interpolate_refuses_a_repeated_prime():
    # with 13 both fitted and held out, the check passed by construction
    # and returned a degree-5 fit to f_6(p^7), whose degree is 6
    for primes, repeated in (((2, 3, 5, 7, 11, 13, 13), 13), ((2, 2, 3), 2)):
        with pytest.raises(ValueError, match=f"got {repeated} twice"):
            interpolate_count(6, 7, primes, len(primes) - 2)


def test_interpolate_rejects_negative_degree_cap():
    # was a degree_exceeds_cap mismatch: no fit has degree below zero
    for irreducible in (False, True):
        with pytest.raises(
            ValueError, match="interpolate_count requires degree_cap >= 0, got degree_cap=-1"
        ):
            interpolate_count(3, 2, (2, 3, 5), -1, irreducible=irreducible)


@pytest.mark.parametrize("cap", [2.5, "2", True])
def test_interpolate_refuses_a_non_integer_degree_cap(cap):
    # 2.5 returned the fit p^2 + 13*p + 20, and "2" raised a TypeError
    with pytest.raises(ValueError, match=re.escape(f"integer degree_cap, got {cap!r}")):
        interpolate_count(4, 4, (2, 3, 5, 7, 11), cap)


def test_bool_arguments_refused():
    # count_subrings(True, 3, 2) returned 0, counting at n = 1
    calls = [
        (lambda: count_subrings(True, 3, 2), "n, got True"),
        (lambda: count_irreducible(3, False, 2), "e, got False"),
        (lambda: scan_subrings(3, True, 2), "e, got True"),
        (lambda: brute_force_subgroups(True, 1, 1, 2), "n, got True"),
        (lambda: sandwich_subring_audit(3, True), "m, got True"),
        (lambda: count_subgroups_of_order(3, 1, True), "k, got True"),
    ]
    for call, got in calls:
        with pytest.raises(ValueError, match=f"requires an integer {got}"):
            call()


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
def test_interpolate_rank5_exponent_seven_degree_four(monkeypatch):
    # the degree stays 4 one exponent further up
    extracted = []

    def counted(parts):
        extracted.append(parts)
        return extract_conditions(parts)

    monkeypatch.setattr(counting, "extract_conditions", counted)
    poly = interpolate_count(5, 7, (2, 3, 5, 7, 11, 13), 4, irreducible=True)
    assert poly == PolyP([1, 1, 6, 21, 15])
    assert poly.degree == 4
    # one extraction per diagonal for all six primes, not one per prime (120)
    assert sorted(extracted) == sorted(compositions(5, 7))
    assert len(extracted) == 20
