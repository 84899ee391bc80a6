import gc
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrings import limits, subgroups
from subrings.counting import ResourceLimitError
from subrings.partitions import conjugate, partitions_of
from subrings.polyp import ONE, PolyP, gaussian_binomial
from subrings.subgroups import (
    _prime_power,
    _sandwich_hnf_agreement,
    bound_h_exponent,
    brute_force_subgroups,
    count_subgroups_of_order,
    iter_sublattices_containing,
    max_degree_order_count,
    sandwich_subring_audit,
    stehling_count,
)


def test_stehling_examples():
    assert stehling_count((1, 1), (1,)) == PolyP([1, 1])
    assert stehling_count((3, 2, 1), (3, 2, 1)) == ONE
    with pytest.raises(ValueError):
        stehling_count((2, 1), (3,))


def test_stehling_homocyclic_matches_direct_product():
    # for lambda = (t,...,t) the general product specializes with
    # lambda'_j = n-1 for j <= t
    t, n = 3, 4
    lam = (t,) * (n - 1)
    for nu in partitions_of(5, max_part=t, max_length=n - 1):
        nuc = conjugate(nu) + (0,) * (t + 1 - nu[0])  # 0-based, padded past column t
        direct = ONE
        for j in range(t):
            direct = direct * PolyP.monomial(nuc[j + 1] * ((n - 1) - nuc[j]))
            direct = direct * gaussian_binomial((n - 1) - nuc[j + 1], nuc[j] - nuc[j + 1])
        assert stehling_count(lam, nu) == direct


def test_count_subgroups_small():
    assert count_subgroups_of_order(3, 1, 1) == PolyP([1, 1])
    assert count_subgroups_of_order(3, 2, 2) == PolyP([1, 1, 1])
    assert count_subgroups_of_order(5, 3, 0) == ONE
    assert count_subgroups_of_order(3, 2, 2)(2) == 7
    # t = 0: the trivial group, of the empty type
    assert all(count_subgroups_of_order(n, 0, 0) == ONE for n in range(1, 6))


def test_brute_force_examples():
    assert brute_force_subgroups(3, 1, 1, 2) == 3
    assert brute_force_subgroups(3, 2, 2, 2) == 7
    assert brute_force_subgroups(4, 1, 2, 3) == 13  # [3 2]_3
    assert all(brute_force_subgroups(n, 0, 0, p) == 1 for n in range(1, 6) for p in (2, 3))
    # n = 0 has no group; it used to recurse without end
    with pytest.raises(ValueError, match="requires n >= 1"):
        brute_force_subgroups(0, 0, 0, 2)


def test_brute_force_desk_scale_guard():
    with pytest.raises(ResourceLimitError) as err:
        brute_force_subgroups(12, 2, 1, 5)
    # the size cap reports the lattices the walk would count, the answer
    assert err.value.nodes == count_subgroups_of_order(12, 2, 1)(5) == 12_207_031
    assert err.value.budget == 10**6
    assert err.value.nodes > err.value.budget
    assert "size cap" in err.value.context


def test_sandwich_desk_scale_guard():
    with pytest.raises(ResourceLimitError) as err:
        sandwich_subring_audit(6, 49)
    # the size cap reports the lattices the audit would walk
    total = sum(count_subgroups_of_order(6, 2, k)(7) for k in range(11))
    assert err.value.nodes == total == 53_693_086_059
    assert err.value.budget == 10**8
    assert err.value.nodes > err.value.budget
    assert "size cap" in err.value.context


def test_size_caps_admit_cheap_queries():
    # a large box with few lattices in it is not refused
    assert brute_force_subgroups(8, 3, 0, 2) == 1
    # nor walked: only the diagonals of the wanted index are visited, so
    # the one lattice in a box of 2^40 diagonals costs 1 + 2 + ... + 40 nodes
    assert brute_force_subgroups(41, 1, 0, 2, node_budget=820) == 1
    with pytest.raises(ResourceLimitError, match="820 nodes > budget 819"):
        brute_force_subgroups(41, 1, 0, 2, node_budget=819)
    audit = sandwich_subring_audit(2, 10007)
    assert [r.sandwich_count for r in audit.rows] == [1, 1]
    assert audit.total_violations == 0


def test_formula_matches_brute_force_grid():
    for p, t, n in [(2, 1, 4), (2, 2, 3), (2, 3, 2), (3, 1, 3), (3, 2, 2)]:
        for k in range(0, t * (n - 1) + 1):
            assert count_subgroups_of_order(n, t, k)(p) == brute_force_subgroups(
                n, t, k, p
            ), (n, t, k, p)


def outcome(call, *args):
    """A call's count, or its overrun as (message, nodes, budget, partial)."""
    try:
        return call(*args)
    except ResourceLimitError as err:
        return (str(err), err.nodes, err.budget, err.partial_count)


def test_walk_outcomes_pinned():
    """Every count and every overrun (nodes, budget, partial count) of the
    brute force on 72 (n, t, k, p) at budgets 0, 7, ..., 399 and
    unbudgeted, and of the (4, 4) audit at budgets 0..340 and unbudgeted,
    by digest.  Pinned before the walk counted its last entries in bulk."""
    digest = hashlib.sha256()
    grid = [
        (n, t, k, p) for p in (2, 3, 5) for t in (1, 2) for n in range(2, 6)
        if p ** (t * (n - 1)) <= 256 for k in range(t * (n - 1) + 1)
    ]
    assert len(grid) == 72
    for q in grid:
        for budget in [*range(0, 400, 7), None]:
            digest.update(repr((q, budget, outcome(brute_force_subgroups, *q, budget))).encode())
    for budget in [*range(341), None]:
        digest.update(repr((budget, outcome(sandwich_subring_audit, 4, 4, budget))).encode())
    assert digest.hexdigest() == (
        "f0357c3fc2b4fd4f489471437f2dae2385b26064db18f5939178e28ecf8d15f1"
    )


def test_audit_outcomes_pinned():
    """Every audit outcome (its rows, or its overrun's message, nodes,
    budget and partial count) at (5, 4) and (6, 3), at every 200th budget
    up to the node total and unbudgeted, by digest.  Pinned before each
    column's closure was tested once per walk prefix."""
    digest = hashlib.sha256()
    for (n, m), total in {(5, 4): 4806, (6, 3): 6584}.items():
        for budget in [*range(0, total + 1, 200), None]:
            out = outcome(lambda *a: sandwich_subring_audit(*a).rows, n, m, budget)
            digest.update(repr(((n, m), budget, out)).encode())
    assert digest.hexdigest() == (
        "4610aa91bad6d010b322efbc2082403ac0bdd40a923af100d220f231728b848c"
    )


def test_benchmark_audit_outcomes_pinned():
    """The same digest over the other two benchmark audits, (4, 16) and
    (5, 5).  Pinned before the audit stopped building an HNFMatrix per
    lattice and validated each column once per walk prefix."""
    digest = hashlib.sha256()
    for (n, m), total in {(4, 16): 6416, (5, 5): 2000}.items():
        for budget in [*range(0, total + 1, 200), None]:
            out = outcome(lambda *a: sandwich_subring_audit(*a).rows, n, m, budget)
            digest.update(repr(((n, m), budget, out)).encode())
    assert digest.hexdigest() == (
        "a1e8280f2c5d809de5adade72a8a921de9aea1295408ba4391eac8163efb4bd7"
    )


def test_bulk_row_outcomes_at_every_budget():
    """Every budget from 0 to the exact node total, on shapes whose last
    column has a row 1 above its pivot, so each batch of that row is met
    both where it fits and where it is walked one value at a time.  The
    totals and the digest were computed before that row was counted in
    bulk."""
    totals = {(4, 2, 3, 2): 104, (4, 2, 3, 3): 256, (5, 1, 2, 3): 320, (6, 1, 3, 2): 648}
    digest = hashlib.sha256()
    for q, total in totals.items():
        for budget in range(total + 1):
            digest.update(repr((q, budget, outcome(brute_force_subgroups, *q, budget))).encode())
    assert digest.hexdigest() == (
        "1c5547860722537e09c4bd65e57e1dc6a03ac4121f2ad01f320926604a3f052f"
    )


def test_single_valued_walk_outcomes_pinned(monkeypatch):
    """Walks made mostly of entries with one value (t = 1): every
    brute-force outcome at every budget from 0 to the node total, and the
    items of two sublattice iterations, by digest.  Unbudgeted, each
    brute force makes one _Budget.spend call per node not spent in bulk,
    and its spend_batch calls.  The digest and the call counts were taken
    before single-valued entries and completed columns were walked in a
    loop instead of by a call each."""
    totals = {(6, 1, 2, 2): 648, (5, 1, 1, 3): 134}
    digest = hashlib.sha256()
    for q, total in totals.items():
        for budget in range(total + 1):
            digest.update(repr((q, budget, outcome(brute_force_subgroups, *q, budget))).encode())
    for args in [(5, 2, 1), (4, 3, 1)]:
        digest.update(repr((args, list(iter_sublattices_containing(*args)))).encode())
    assert digest.hexdigest() == (
        "5320f7949acbb645a318fc48312a048bff35e140ddc9bbb348dc7b874b476691"
    )

    calls = {"spend": 0, "spend_batch": 0}
    spend, spend_batch = limits._Budget.spend, limits._Budget.spend_batch

    def counted_spend(self):
        calls["spend"] += 1
        spend(self)

    def counted_batch(self, k, count):
        calls["spend_batch"] += 1
        return spend_batch(self, k, count)

    monkeypatch.setattr(limits._Budget, "spend", counted_spend)
    monkeypatch.setattr(limits._Budget, "spend_batch", counted_batch)
    for q, expected in {(6, 1, 2, 2): (155, 394, 71), (5, 1, 1, 3): (40, 72, 16)}.items():
        calls.update(spend=0, spend_batch=0)
        assert (brute_force_subgroups(*q), calls["spend"], calls["spend_batch"]) == expected, q


@given(
    st.integers(1, 5), st.integers(1, 2), st.sampled_from((2, 3, 5)), st.data(),
    st.integers(0, 3000),
)
@settings(max_examples=200, deadline=None)
def test_budgeted_brute_force_against_formula(n, t, p, data, budget):
    """Under any budget the brute force returns the product formula's count
    or overruns by one node with a partial count that does not exceed it."""
    k = data.draw(st.integers(0, t * (n - 1)))
    exact = int(count_subgroups_of_order(n, t, k)(p))
    try:
        assert brute_force_subgroups(n, t, k, p, node_budget=budget) == exact
    except ResourceLimitError as err:
        assert (err.nodes, err.budget) == (budget + 1, budget)
        assert 0 <= err.partial_count <= exact


@pytest.mark.parametrize(
    "call, args",
    [
        (count_subgroups_of_order, (3, -1, 0)),
        (brute_force_subgroups, (3, -1, 0, 2)),
        (max_degree_order_count, (3, -2, 0)),
        (lambda *a: list(iter_sublattices_containing(*a)), (2, 2, -1)),
    ],
    ids=["count_subgroups_of_order", "brute_force_subgroups", "max_degree_order_count",
         "iter_sublattices_containing"],
)
def test_subgroup_entry_points_refuse_negative_t(call, args):
    # the first three said "order exponent 0 outside [0, -2]"; the walk
    # silently yielded nothing
    with pytest.raises(ValueError, match=r"requires t >= 0, got t=-"):
        call(*args)


def test_subgroup_entry_points_name_a_bad_rank():
    # the walk raised itertools' "repeat argument cannot be negative", and
    # max_degree_order_count said "order exponent 0 outside [0, -1]"
    with pytest.raises(ValueError, match=r"iter_sublattices_containing requires m >= 0, got m=-1"):
        next(iter_sublattices_containing(-1, 2, 1))
    with pytest.raises(ValueError, match=r"max_degree_order_count requires n >= 1, got n=0"):
        max_degree_order_count(0, 1, 0)
    # these named count_subgroups_of_order and iter_sublattices_containing
    with pytest.raises(ValueError, match=r"^brute_force_subgroups requires n >= 1, got n=0"):
        brute_force_subgroups(0, 0, 0, 2)
    with pytest.raises(ValueError, match=r"^_sandwich_hnf_agreement requires n >= 1, got n=0"):
        _sandwich_hnf_agreement(0, 2)


def test_sublattice_iteration_refuses_non_prime_p():
    # (2, 4, 1) used to walk with p = 4
    with pytest.raises(ValueError, match="p must be a prime, got 4"):
        list(iter_sublattices_containing(2, 4, 1))


def test_self_duality():
    for n in range(2, 6):
        for t in range(1, 4):
            top = t * (n - 1)
            for k in range(0, top + 1):
                assert count_subgroups_of_order(n, t, k) == count_subgroups_of_order(
                    n, t, top - k
                )


def test_degree_matches_balanced_formula():
    for n in range(2, 7):
        for t in range(1, 5):
            for k in range(0, t * (n - 1) + 1):
                poly = count_subgroups_of_order(n, t, k)
                deg = 0 if poly == ONE else poly.degree
                assert deg == max_degree_order_count(n, t, k), (n, t, k)


def test_max_degree_examples():
    assert max_degree_order_count(6, 3, 5) == 16
    assert max_degree_order_count(6, 4, 10) == 24
    assert max_degree_order_count(4, 2, 0) == 0
    with pytest.raises(ValueError):
        max_degree_order_count(3, 1, 9)


def test_bound_h_values():
    assert bound_h_exponent(6, 10) == 0
    assert bound_h_exponent(6, 30) == 24
    assert bound_h_exponent(10, 1000) == 1538
    with pytest.raises(ValueError):
        bound_h_exponent(4, 1)


def test_bound_h_divisible_case_reduces():
    # when t | e and t(n-1) <= e <= 2t(n-1) the t-term collapses to
    # (e - t(n-1)) (2(n-1) - e/t)
    for n in (3, 4, 6):
        for t in range(1, 7):
            for e in range(t * (n - 1), 2 * t * (n - 1) + 1, t):
                k = e - t * (n - 1)
                assert max_degree_order_count(n, t, k) == k * (2 * (n - 1) - e // t)


def test_sublattice_iteration_counts():
    # subgroups of (Z/4)^2 by index exponent: 1, 3, 7, 3, 1 (total 15)
    counts = {}
    for _, idx in iter_sublattices_containing(2, 2, 2):
        counts[idx] = counts.get(idx, 0) + 1
    assert counts == {0: 1, 1: 3, 2: 7, 3: 3, 4: 1}


def test_sandwich_hnf_matches_hnf_from_generators():
    # the audit's closed form against generic elimination of the generators
    # 1, m * (columns of L) and m^2 e_j of G
    checked = 0
    for n, m in [(1, 2), (2, 4), (2, 9), (3, 2), (3, 8), (4, 4), (4, 9), (5, 3), (5, 4)]:
        walked, agreeing = _sandwich_hnf_agreement(n, m)
        assert agreeing == walked, (n, m)
        checked += walked
    assert checked == 2818


def test_sandwich_oracle_overrun_reports_lattices_compared():
    # the oracle walks the audit's lattices under the same budget, so an
    # overrun reports the same partial count (it used to report 0)
    for budget in (0, 150, 300):
        partials = []
        for run in (sandwich_subring_audit, _sandwich_hnf_agreement):
            with pytest.raises(ResourceLimitError) as err:
                run(4, 4, budget)
            partials.append(err.value.partial_count)
        assert partials[0] == partials[1], budget
    assert partials[1] > 0


@pytest.mark.parametrize("change, expected", [
    ("skip", (129, 44)), ("swap", (129, 127)), ("repeat", (130, 45)),
])
def test_sandwich_oracle_checks_the_walk_order(monkeypatch, change, expected):
    """The oracle compares the audit's walk, lattice by lattice, with the
    items of iter_sublattices_containing.  A generator that skips,
    reorders or repeats one of the 129 lattices at (4, 4) fails it: every
    lattice past the change disagrees, or only the two swapped ones,
    which have the same index, so only their bases tell them apart."""
    walk = subgroups.iter_sublattices_containing

    def changed(*args):
        items = list(walk(*args))
        if change == "skip":
            del items[44]
        elif change == "swap":
            assert items[44][1] == items[45][1]
            items[44], items[45] = items[45], items[44]
        else:
            items.insert(44, items[44])
        yield from items

    assert _sandwich_hnf_agreement(4, 4) == (129, 129)
    monkeypatch.setattr(subgroups, "iter_sublattices_containing", changed)
    assert _sandwich_hnf_agreement(4, 4) == expected


def test_sandwich_audit_counts_the_generator_lattices():
    # the audit walks the lattices itself, not through the generator that
    # the benchmark's traced runs count as subgroups.sublattices; its
    # counts per index are the generator's
    totals = {}
    for n, m in [(5, 4), (4, 9)]:
        per_kappa: dict[int, int] = {}
        for _, kappa in iter_sublattices_containing(n - 1, *_prime_power(m)):
            per_kappa[kappa] = per_kappa.get(kappa, 0) + 1
        audit = sandwich_subring_audit(n, m)
        assert {r.order_exponent: r.sandwich_count for r in audit.rows} == per_kappa, (n, m)
        assert audit.all_counts_match and audit.total_violations == 0
        totals[n, m] = sum(per_kappa.values())
    assert totals == {(5, 4): 1983, (4, 9): 445}


def test_sandwich_audit_failing_prefixes(monkeypatch):
    """No sandwich lattice fails closure, so a stub closure test stands in
    for one that does: column c fails when c is odd and its row-0 entry
    is nonzero.  The audit tests each column once per walk prefix and
    fails every lattice below a failing column; a recount applies the
    stub to every column of each full matrix."""

    def stub(rows, c):
        return not (c % 2 and rows[0][c])

    monkeypatch.setattr(subgroups, "_column_closed", stub)
    failing = 0
    for n, m in [(3, 4), (4, 4), (4, 9), (5, 2), (5, 3)]:
        recount: dict[int, int] = {}
        for rows, kappa in iter_sublattices_containing(n - 1, *_prime_power(m)):
            full = [[m * a for a in row] + [1] for row in rows] + [[0] * (n - 1) + [1]]
            bad = not all(stub(full, c) for c in range(n - 1))
            recount[kappa] = recount.get(kappa, 0) + bad
        audit = sandwich_subring_audit(n, m)
        assert {r.order_exponent: r.violations for r in audit.rows} == recount, (n, m)
        assert audit.all_counts_match
        failing += audit.total_violations
    assert failing > 0


@pytest.mark.parametrize(
    "bad",
    [
        ((1, 0, 0), (0, 2, 2), (0, 0, 4)),  # a_12 = 2 at the pivot of row 1
        ((1, 0, 3), (0, 1, 0), (0, 0, 2)),  # a_02 = 3 above the pivot 1
        ((1, 0, -1), (0, 1, 0), (0, 0, 2)),  # a negative entry
        ((1, 0, 0), (0, 1, 0), (0, 0, 3)),  # a pivot that is not a power of 2
        ((1, 0, 0), (0, 1, 0), (0, 0, 8)),  # a pivot past p^t = 4
        ((2, 0, 0), (0, 1, 0), (0, 0, 1.0)),  # a float pivot
    ],
)
def test_sandwich_audit_checks_every_column_it_writes(monkeypatch, bad):
    """The audit checks each column of G's HNF where the walk completes
    it, not per lattice, so a walk that completes a malformed basis of L
    must still fail it.  A valid lattice comes first, and the fake walk
    then completes only the columns from the first one that changes, as
    the walk does, so in the first case the bad column is not the first
    one written."""

    def walk(p, t, diag, budget, visit, column):
        if any(diag):  # both lattices are given in the first diagonal
            return
        prev = rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for c in range(3):
            column(c, rows)
        visit(rows)
        rows = [list(row) for row in bad]
        first = next(c for c in range(3) if any(r[c] != q[c] for r, q in zip(rows, prev)))
        for c in range(first, 3):
            column(c, rows)
        visit(rows)

    monkeypatch.setattr(subgroups, "_walk_sublattices", walk)
    with pytest.raises(ValueError, match=r"pivot|entry"):
        sandwich_subring_audit(4, 4)


def test_sandwich_audit_rank3():
    audit = sandwich_subring_audit(3, 2)
    assert audit.total_violations == 0
    assert audit.all_counts_match
    by_k = {r.order_exponent: r.sandwich_count for r in audit.rows}
    assert by_k[1] == 3  # order-2 subgroups of the Klein group


def test_sandwich_audit_rank2_divisor_chain():
    audit = sandwich_subring_audit(2, 4)
    assert audit.total_violations == 0
    assert all(r.sandwich_count == 1 for r in audit.rows)


def test_sandwich_audit_rejects_non_prime_power():
    with pytest.raises(ValueError):
        sandwich_subring_audit(3, 6)


def test_prime_power_against_trial_division():
    for m in range(2, 3000):
        p = next(q for q in range(2, m + 1) if m % q == 0)
        t = 0
        while m % p**(t + 1) == 0:
            t += 1
        if p**t == m:
            assert _prime_power(m) == (p, t)
        else:
            with pytest.raises(ValueError, match=f"modulus {m} is not a prime power"):
                _prime_power(m)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        _prime_power(1)
    assert _prime_power(3**40) == (3, 40)
    assert _prime_power((2**61 - 1) ** 3) == (2**61 - 1, 3)


def test_sandwich_audit_at_a_large_prime_modulus():
    # finding (p, t) used to trial-divide up to m: minutes at m = 2^31 - 1
    audit = sandwich_subring_audit(2, 2**31 - 1)
    assert len(audit.rows) == 2
    assert audit.all_counts_match and audit.total_violations == 0


def test_sandwich_audit_rejects_rank_zero():
    for n in (0, -1):
        with pytest.raises(ValueError, match="requires n >= 1"):
            sandwich_subring_audit(n, 2)


def test_sandwich_audit_spends_one_budget(monkeypatch):
    # the audit walks its lattices once, under the one budget it is given
    spent = []
    spend = limits._Budget.spend

    def counted(self):
        spent.append(1)
        spend(self)

    monkeypatch.setattr(limits._Budget, "spend", counted)
    # the walk at (4, 4) takes 340 nodes
    sandwich_subring_audit(4, 4, node_budget=340)
    assert sum(spent) == 340
    spent.clear()
    with pytest.raises(ResourceLimitError) as err:
        sandwich_subring_audit(4, 4, node_budget=339)
    assert err.value.nodes == sum(spent) == 340


def test_walks_leave_nothing_for_the_cycle_collector():
    # the recursive walk refers to itself through its cell; every walk
    # used to leave that cycle, with its buffers and, in the generator,
    # the diagonal's lattice list, for the collector (2,681 objects after
    # the (5, 4) audit)
    gc.collect()
    gc.disable()
    try:
        brute_force_subgroups(6, 2, 4, 2)
        sandwich_subring_audit(5, 4)
        with pytest.raises(ResourceLimitError):
            sandwich_subring_audit(4, 4, node_budget=150)
        list(iter_sublattices_containing(3, 2, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sandwich_audit_partial_count():
    # an overrun reports the lattices audited before it, never more than
    # the audit counts in all
    total = sum(r.sandwich_count for r in sandwich_subring_audit(4, 4).rows)
    partials = []
    for budget in range(340):
        with pytest.raises(ResourceLimitError) as err:
            sandwich_subring_audit(4, 4, node_budget=budget)
        assert err.value.nodes == budget + 1
        assert 0 <= err.value.partial_count <= total, budget
        partials.append(err.value.partial_count)
    assert max(partials) > 0
