import io
import itertools
import re
import tokenize

import pytest

from subrings import closure
from subrings.closure import (
    ClosureSystem,
    CongruenceCondition,
    SymPoly,
    _counter_sources,
    count_solutions,
    extract_conditions,
)
from subrings.counting import ResourceLimitError, count_by_diagonal, scan_by_diagonal
from subrings.hnf import HNFMatrix, is_closed
from subrings.partitions import compositions


def test_trivial_diagonal_has_no_conditions():
    system = extract_conditions((1, 1, 1, 1))
    assert system.conditions == []
    assert system.variable_ranges == {}
    assert count_solutions(system, 5) == 1


def test_unconstrained_box():
    system = extract_conditions((2, 1))
    assert system.conditions == []
    assert count_solutions(system, 3) == 3  # full box for the single variable


def test_two_two_matches_enumeration():
    system = extract_conditions((2, 2))
    for p in (2, 3, 5):
        assert count_solutions(system, p) == scan_by_diagonal((2, 2), p)


def test_depth_3211_after_substitution():
    """Rescaling a12 by p collapses the system to three congruences, all
    with modulus p (the standard hand-simplified form)."""
    system = extract_conditions((3, 2, 1, 1), {(1, 2): 1})
    assert system.texts() == [
        "a12'*a23 - a12'*a23^2 - a13 + a13^2 ≡ 0 mod p^1",
        "-a12'*a23*a24 + a13*a14 ≡ 0 mod p^1",
        "a12'*a24 - a12'*a24^2 - a14 + a14^2 ≡ 0 mod p^1",
    ]
    # numerically equivalent to the full enumeration at several primes
    for p in (2, 3, 5):
        assert count_solutions(system, p) == scan_by_diagonal((3, 2, 1, 1), p)


def test_depth_3211_raw():
    system = extract_conditions((3, 2, 1, 1))
    assert system.texts() == [
        "-p*a12 + a12^2 ≡ 0 mod p^1",
        "a12*a13 - a12*a23 ≡ 0 mod p^1",
        "a12*a23 - a12*a23^2 - p*a13 + p*a13^2 ≡ 0 mod p^2",
        "a12*a14 - a12*a24 ≡ 0 mod p^1",
        "-a12*a23*a24 + p*a13*a14 ≡ 0 mod p^2",
        "a12*a24 - a12*a24^2 - p*a14 + p*a14^2 ≡ 0 mod p^2",
    ]
    for p in (2, 3, 5):
        assert count_solutions(system, p) == scan_by_diagonal((3, 2, 1, 1), p)


def test_minimal_modulus_structure():
    # every condition keeps a p-free coefficient after clearing denominators
    for alpha in ((3, 2, 1, 1), (4, 2), (3, 3), (2, 2, 2)):
        for cond in extract_conditions(alpha).conditions:
            assert cond.modulus_exponent >= 1
            assert cond.numerator.min_p_exponent() == 0


def test_conditions_serialize_deterministically():
    a = extract_conditions((3, 2, 1, 1)).texts()
    b = extract_conditions((3, 2, 1, 1)).texts()
    assert a == b
    assert all("≡ 0 mod p^" in t for t in a)


def test_bad_substitution_rejected():
    with pytest.raises(ValueError):
        extract_conditions((2, 1), {(9, 9): 1})
    with pytest.raises(ValueError):
        extract_conditions((2, 1), {(1, 2): 5})


def test_solutions_reconstruct_closed_matrices():
    """Every counted solution corresponds to an HNF matrix passing the
    exhaustive closure test (back-substitution correctness)."""
    alpha, p = (2, 2), 3
    system = extract_conditions(alpha)
    accepted = []
    for a12 in range(p ** (alpha[0] - 1)):
        rows = [
            [p ** alpha[0], p * a12, 1],
            [0, p ** alpha[1], 1],
            [0, 0, 1],
        ]
        if is_closed(HNFMatrix.from_rows(p, rows)):
            accepted.append(a12)
    assert len(accepted) == count_solutions(system, p)


def test_solution_sets_match_matrix_sets_exactly():
    """The congruence system and the matrix scan accept the same entry
    assignments, element by element, not just in count."""
    alpha, p = (3, 2, 1, 1), 2
    system = extract_conditions(alpha)
    boxes = {v: p**e for v, e in system.variable_ranges.items()}
    names = sorted(boxes, key=lambda v: (v[0], v[1]))
    assert [(v[0], v[1]) for v in names] == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]

    def satisfies(assign):
        for cond in system.conditions:
            if cond.numerator.evaluate_int(p, assign) % p**cond.modulus_exponent:
                return False
        return True

    from_conditions = set()
    for values in itertools.product(*[range(boxes[v]) for v in names]):
        assign = dict(zip(names, values))
        if satisfies(assign):
            from_conditions.add(values)

    from_matrices = set()
    for values in itertools.product(*[range(boxes[v]) for v in names]):
        entry = dict(zip([(v[0], v[1]) for v in names], values))
        rows = [
            [p**3, p * entry[(1, 2)], p * entry[(1, 3)], p * entry[(1, 4)], 1],
            [0, p**2, p * entry[(2, 3)], p * entry[(2, 4)], 1],
            [0, 0, p, 0, 1],
            [0, 0, 0, p, 1],
            [0, 0, 0, 0, 1],
        ]
        if is_closed(HNFMatrix.from_rows(p, rows)):
            from_matrices.add(values)

    assert from_conditions == from_matrices
    assert len(from_conditions) == count_solutions(system, p) == 88


def test_closure_grid_matches_enumeration():
    for n in (2, 3):
        for e in range(n - 1, 5):
            for alpha in compositions(n, e):
                system = extract_conditions(alpha)
                for p in (2, 3):
                    assert count_solutions(system, p) == scan_by_diagonal(alpha, p), (
                        alpha.parts,
                        p,
                    )


def test_count_solutions_budget():
    system = extract_conditions((4, 2, 1))
    with pytest.raises(ResourceLimitError):
        count_solutions(system, 5, node_budget=3)
    # one scanned variable: a negative budget overruns at the first value
    for budget in (-3, 0):
        with pytest.raises(ResourceLimitError) as err:
            count_solutions(extract_conditions((3, 1)), 3, node_budget=budget)
        assert (err.value.nodes, err.value.partial_count) == (1, 0)


def test_sympoly_evaluate_int():
    x = SymPoly.variable((1, 2, 0))
    poly = x * x - SymPoly.const(1, 1) * x  # a^2 - p*a
    assert poly.evaluate_int(5, {(1, 2, 0): 7}) == 49 - 35


def chain_system(length: int) -> ClosureSystem:
    """x_k - x_(k-1) == 0 mod p for k = 1..length-1, each x_k in [0, p)."""
    xs = [(1, k + 2, 0) for k in range(length)]
    conditions = [
        CongruenceCondition(SymPoly.variable(b) - SymPoly.variable(a), 1)
        for a, b in zip(xs, xs[1:])
    ]
    return ClosureSystem((1,) * length, conditions, {x: 1 for x in xs})


@pytest.mark.parametrize("p,nodes", [(2, 98), (3, 219)])
def test_deep_system_counts_every_value_tried(p, nodes):
    """25 scanned variables, more loops than one Python function may nest.
    The first takes p values, each later one p for each of the p survivors:
    p + 24 p^2 nodes, and p solutions."""
    system = chain_system(25)
    assert nodes == p + 24 * p * p
    assert count_solutions(system, p) == p
    assert count_solutions(system, p, node_budget=nodes) == p
    with pytest.raises(ResourceLimitError) as err:
        count_solutions(system, p, node_budget=nodes - 1)
    assert err.value.nodes == nodes
    assert err.value.budget == nodes - 1
    assert err.value.partial_count == p - 1
    assert err.value.context == f"count_solutions(alpha={system.alpha}, p={p})"


def test_twenty_one_scanned_variables():
    # 263552 is also scan_by_diagonal's value (about 14 s, so not rerun here)
    assert len(extract_conditions((2, 2, 2, 1, 2, 1, 1, 1)).variable_ranges) == 21
    assert count_by_diagonal((2, 2, 2, 1, 2, 1, 1, 1), 2) == 263552


def test_counter_source_holds_only_literals_and_fixed_names(monkeypatch):
    sources = []

    def recording(*args):
        made = _counter_sources(*args)
        sources.extend(made)
        return made

    monkeypatch.setattr(closure, "_counter_sources", recording)
    count_solutions(extract_conditions((3, 2, 1, 1)), 3)
    count_solutions(chain_system(25), 2)
    assert len(sources) > 2
    allowed = re.compile(
        r"(x|c|count)\d*|nodes|width|overrun|range|def|for|in|if|else|continue|return"
    )
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert allowed.fullmatch(tok.string), tok.string
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), tok.string
            elif tok.type in (tokenize.STRING, tokenize.COMMENT):
                raise AssertionError(tok.string)
