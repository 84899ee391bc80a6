import pytest

from subrings import limits
from subrings.counting import ResourceLimitError
from subrings.partitions import Partition, partitions_of
from subrings.polyp import ONE, PolyP, gaussian_binomial
from subrings.subgroups import (
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
    lam = Partition([t] * (n - 1))
    for nu in partitions_of(5, max_part=t, max_length=n - 1):
        nuc = nu.conjugate()
        direct = ONE
        for j in range(1, t + 1):
            direct = direct * PolyP.monomial(nuc.part(j + 1) * ((n - 1) - nuc.part(j)))
            direct = direct * gaussian_binomial(
                (n - 1) - nuc.part(j + 1), nuc.part(j) - nuc.part(j + 1)
            )
        assert stehling_count(lam, nu) == direct


def test_count_subgroups_small():
    assert count_subgroups_of_order(3, 1, 1) == PolyP([1, 1])
    assert count_subgroups_of_order(3, 2, 2) == PolyP([1, 1, 1])
    assert count_subgroups_of_order(5, 3, 0) == ONE
    assert count_subgroups_of_order(3, 2, 2)(2) == 7


def test_brute_force_examples():
    assert brute_force_subgroups(3, 1, 1, 2) == 3
    assert brute_force_subgroups(3, 2, 2, 2) == 7
    assert brute_force_subgroups(4, 1, 2, 3) == 13  # [3 2]_3


def test_brute_force_desk_scale_guard():
    with pytest.raises(ResourceLimitError) as err:
        brute_force_subgroups(12, 2, 1, 5)
    # the size cap reports the box it compared, not a node count of 0
    assert err.value.nodes == 5**22
    assert err.value.budget == 10**6
    assert err.value.nodes > err.value.budget
    assert "size cap" in err.value.context


def test_sandwich_desk_scale_guard():
    with pytest.raises(ResourceLimitError) as err:
        sandwich_subring_audit(6, 49)
    assert err.value.nodes == 49**10
    assert err.value.budget == 10**8
    assert err.value.nodes > err.value.budget
    assert "size cap" in err.value.context


def test_formula_matches_brute_force_grid():
    for p, t, n in [(2, 1, 4), (2, 2, 3), (2, 3, 2), (3, 1, 3), (3, 2, 2)]:
        for k in range(0, t * (n - 1) + 1):
            assert count_subgroups_of_order(n, t, k)(p) == brute_force_subgroups(
                n, t, k, p
            ), (n, t, k, p)


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


def test_sandwich_audit_rejects_rank_zero():
    for n in (0, -1):
        with pytest.raises(ValueError, match="requires n >= 1"):
            sandwich_subring_audit(n, 2)


def test_sandwich_audit_spends_one_budget(monkeypatch):
    # the audit walks its lattices once, under the one budget it is given
    spent = []
    spend = limits._Budget.spend

    def counted(self, k=1):
        spent.append(k)
        spend(self, k)

    monkeypatch.setattr(limits._Budget, "spend", counted)
    # the walk at (4, 4) takes 340 nodes
    sandwich_subring_audit(4, 4, node_budget=340)
    assert sum(spent) == 340
    spent.clear()
    with pytest.raises(ResourceLimitError) as err:
        sandwich_subring_audit(4, 4, node_budget=339)
    assert err.value.nodes == sum(spent) == 340


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
