import gc
import hashlib
import io
import itertools
import math
import random
import re
import tokenize
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subrings import closure
from subrings.closure import (
    ClosureSystem,
    CongruenceCondition,
    _counter_source,
    count_solutions,
    extract_conditions,
)
from subrings.counting import ResourceLimitError, count_by_diagonal, scan_by_diagonal
from subrings.hnf import HNFMatrix, is_closed
from subrings.limits import _Budget
from subrings.partitions import compositions

# values of closure._INTERPRETED_VALUES that send every plan to one tier
COMPILED, INTERPRETED = 0, math.inf


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
            assert min(k for _, k in cond.numerator) == 0


def test_condition_texts_pinned():
    """The conditions, their order and their text, and the variable ranges
    of every diagonal with n <= 7, e <= 9 (465 systems), by digest."""
    digest = hashlib.sha256()
    for n in range(2, 8):
        for e in range(n - 1, 10):
            for alpha in compositions(n, e):
                system = extract_conditions(alpha)
                ranges = sorted(system.variable_ranges.items())
                digest.update(repr((alpha, system.texts(), ranges)).encode())
    assert digest.hexdigest() == (
        "cc6b5375cba697f67f4458b7b456ba5324c3bd44098cd44e79ec19ae2a28b9e0"
    )


def congruence_workload_systems() -> list[ClosureSystem]:
    """The 266 systems of the benchmark's congruence workload: every
    diagonal of g_5(p^7), g_8(p^10), g_6(p^9), g_7(p^9) and g_6(p^8), and
    the substituted (3, 2, 1, 1)."""
    systems = [extract_conditions(alpha)
               for n, e in ((5, 7), (8, 10), (6, 9), (7, 9), (6, 8))
               for alpha in compositions(n, e)]
    return systems + [extract_conditions((3, 2, 1, 1), {(1, 2): 1})]


def test_numerator_items_pinned():
    """Each condition's numerator items, in insertion order, and its
    modulus exponent, over the congruence workload's systems, by digest:
    the order in which the plan meets the terms, which the texts above
    sort away.  Pinned before extraction tracked each row's lowest
    p-exponent instead of taking a min per row."""
    systems = congruence_workload_systems()
    assert len(systems) == 266
    digest = hashlib.sha256()
    for system in systems:
        conditions = [(list(c.numerator.items()), c.modulus_exponent) for c in system.conditions]
        digest.update(repr((system.alpha, conditions)).encode())
    assert digest.hexdigest() == (
        "677ded01cfff4fde1c0eed027d20c578bd8f15b0a4b1b2c7a4972b2f15ed5840"
    )


def test_multi_term_coefficient_text():
    """No extracted condition has a coefficient of two or more powers of p,
    so the pinned texts above never meet one.  These texts were taken from
    the printer that came before PolyP wrote the coefficients."""
    x, y = (1, 2, 0), (1, 3, 0)
    cases = {
        "(-3*p + 1)*a12 ≡ 0 mod p^2": {(((x, 1),), 0): 1, (((x, 1),), 1): -3},
        "2 + (-p^2 - 1)*a12 - 2*p*a12*a13^2 ≡ 0 mod p^2": {
            (((x, 1),), 2): -1, (((x, 1),), 0): -1, ((), 0): 2, (((x, 1), (y, 2)), 1): -2,
        },
        "-5*a12 + (p^3 - 1)*a13 ≡ 0 mod p^2": {
            (((y, 1),), 0): -1, (((y, 1),), 3): 1, (((x, 1),), 0): -5,
        },
    }
    for text, terms in cases.items():
        assert CongruenceCondition(terms, 2).text() == text


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


def test_forced_zero_slot_substitutions():
    # row 2 of (2, 1, 1) has pivot p^1, so slot (2, 3) ranges over
    # [0, p^0) and is forced to 0: k = 0 used to be reported as a
    # substitution for an unknown slot
    assert extract_conditions((2, 1, 1), {(2, 3): 0}) == extract_conditions((2, 1, 1))
    for k in (1, -1):
        with pytest.raises(ValueError, match=rf"substitution p\^{k} out of range for slot \(2,3\)"):
            extract_conditions((2, 1, 1), {(2, 3): k})


@pytest.mark.parametrize("k", [True, 1.5, 1.0, "1"])
def test_non_int_substitution_refused(k):
    # True used to be taken as p^1, and 1.5 was reported as out of range
    with pytest.raises(ValueError, match=r"substitution for slot \(1,2\) must be an int, got "):
        extract_conditions((3, 2, 1, 1), {(1, 2): k})


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


def evaluate(terms: dict, p: int, assignment: dict) -> int:
    """A numerator's value at a concrete prime and integer assignment,
    written independently of the solver; every p-exponent must be >= 0."""
    total = 0
    for (mono, k), c in terms.items():
        assert k >= 0, "a Laurent term with k < 0"
        prod = c * p**k
        for v, d in mono:
            prod *= assignment[v] ** d
        total += prod
    return total


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
            if evaluate(cond.numerator, p, assign) % p**cond.modulus_exponent:
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
                        alpha,
                        p,
                    )


def test_count_solutions_budget():
    system = extract_conditions((4, 2, 1))
    with pytest.raises(ResourceLimitError):
        count_solutions(system, 5, node_budget=3)
    # one scanned variable: a zero budget overruns at the first value
    with pytest.raises(ResourceLimitError) as err:
        count_solutions(extract_conditions((3, 1)), 3, node_budget=0)
    assert (err.value.nodes, err.value.partial_count) == (1, 0)
    # a negative budget is refused before anything is counted
    with pytest.raises(ValueError, match="node_budget must be >= 0"):
        count_solutions(extract_conditions((3, 1)), 3, node_budget=-3)


def test_solve_leaves_no_reference_cycle():
    # the generated counters' globals are their namespace; a solve must
    # not leave that cycle for the collector
    system = extract_conditions((3, 2, 1, 1))
    count_solutions(system, 3)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            count_solutions(extract_conditions((3, 2, 1, 1)), 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_numerator_text_and_value():
    a = (1, 2, 0)
    terms = {(((a, 2),), 0): 1, (((a, 1),), 1): -1}  # a^2 - p*a
    assert CongruenceCondition(terms, 1).text() == "-p*a12 + a12^2 ≡ 0 mod p^1"
    assert evaluate(terms, 5, {a: 7}) == 49 - 35


def chain_system(length: int) -> ClosureSystem:
    """x_k - x_(k-1) == 0 mod p for k = 1..length-1, each x_k in [0, p)."""
    xs = [(1, k + 2, 0) for k in range(length)]
    conditions = [
        CongruenceCondition({(((b, 1),), 0): 1, (((a, 1),), 0): -1}, 1)
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


def record_compiles(monkeypatch, bound=COMPILED) -> list:
    """Empty the counter cache and record every compile closure makes,
    with the plans that try at most bound values interpreted (by default
    none)."""
    compiled = []

    def counted(*args):
        compiled.append(args)
        return compile(*args)

    monkeypatch.setattr(closure, "compile", counted, raising=False)
    monkeypatch.setattr(closure, "_INTERPRETED_VALUES", bound)
    closure._compiled_function.cache_clear()
    return compiled


def test_counter_is_shared_by_equal_box_and_checks(monkeypatch):
    # at p = 3, (2, 1, 2, 1) is (2, 2, 1) with one more free variable
    compiled = record_compiles(monkeypatch)
    assert count_solutions(extract_conditions((2, 2, 1)), 3) == 21
    assert len(compiled) == 1
    assert count_solutions(extract_conditions((2, 1, 2, 1)), 3) == 63
    assert len(compiled) == 1


def test_counter_is_shared_across_primes(monkeypatch):
    # the widths, periods, moduli and coefficients of (2, 2, 1) change
    # with p, its shape does not
    compiled = record_compiles(monkeypatch)
    system = extract_conditions((2, 2, 1))
    assert [count_solutions(system, p) for p in (3, 5, 7)] == [21, 65, 133]
    assert len(compiled) == 1


def test_compiles_are_the_distinct_shapes(monkeypatch):
    """Over every diagonal of g_5(p^7) at p = 5 and 7, each distinct
    function shape is compiled once: 40 functions, 18 shapes."""
    compiled = record_compiles(monkeypatch)
    shapes, functions = set(), 0
    for alpha in compositions(5, 7):
        system = extract_conditions(alpha)
        for p in (5, 7):
            assert count_solutions(system, p) == scan_by_diagonal(alpha, p)
            plan = closure._plan(system, p)
            if plan is not None and plan.box:
                made = closure._functions(plan)
                functions += len(made)
                shapes.update(shape for shape, _ in made)
    assert (functions, len(shapes)) == (40, 18)
    assert len(compiled) == len(shapes)


def test_cache_holds_a_round_of_shapes(monkeypatch):
    """Every diagonal of g_6(p^9) at p = 2 and 3 compiles its 77 distinct
    shapes once, and a second pass over them compiles nothing: the cache
    keeps shapes that come back after many others."""
    compiled = record_compiles(monkeypatch)
    systems = [extract_conditions(alpha) for alpha in compositions(6, 9)]
    first = [count_solutions(system, p) for system in systems for p in (2, 3)]
    plans = [closure._plan(system, p) for system in systems for p in (2, 3)]
    shapes = {shape for plan in plans if plan and plan.box for shape, _ in closure._functions(plan)}
    assert len(compiled) == len(shapes) == 77
    assert [count_solutions(system, p) for system in systems for p in (2, 3)] == first
    assert len(compiled) == 77


def outcome(system, p, budget):
    try:
        return count_solutions(system, p, node_budget=budget)
    except ResourceLimitError as err:
        return err.nodes, err.budget, err.partial_count


def test_budget_sweep_compiles_once(monkeypatch):
    """Every budget runs the one compiled counter, and reports what a
    freshly compiled counter reports."""
    system, p, nodes = extract_conditions((2, 2, 1)), 5, 155
    compiled = record_compiles(monkeypatch)
    warm = [outcome(system, p, budget) for budget in range(nodes + 1)]
    assert len(compiled) == 1
    assert warm[-1] == count_solutions(system, p) == 65
    assert all(warm[b] == (b + 1, b, warm[b][2]) for b in range(nodes))
    for budget in range(nodes + 1):
        closure._compiled_function.cache_clear()
        assert outcome(system, p, budget) == warm[budget]
    assert len(compiled) == nodes + 2


def test_counter_source_holds_only_literals_and_fixed_names(monkeypatch):
    sources = []

    def recording(shape):
        sources.append(_counter_source(shape))
        return sources[-1]

    monkeypatch.setattr(closure, "_counter_source", recording)
    # (3, 2, 1, 1) at p = 3 tries at most 1,089 values, which the
    # interpreted tier would count without generating any source
    monkeypatch.setattr(closure, "_INTERPRETED_VALUES", COMPILED)
    closure._compiled_function.cache_clear()
    count_solutions(extract_conditions((3, 2, 1, 1)), 3)
    from_diagonal = len(sources)
    count_solutions(chain_system(25), 2)
    assert 0 < from_diagonal < len(sources)
    assert len(sources) > 2
    allowed = re.compile(
        r"(x|c|count)\d*|[nkL]\d+|nodes|limit|width|overrun|range"
        r"|def|for|in|if|else|and|continue|break|return"
    )
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert allowed.fullmatch(tok.string), tok.string
            elif tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), tok.string
            elif tok.type in (tokenize.STRING, tokenize.COMMENT):
                raise AssertionError(tok.string)


def metered_outcome(system, p, budget):
    """A solve's (count, nodes), or its overrun's ("overrun", nodes,
    partial count)."""
    meter = _Budget("", budget)
    try:
        count = closure._count(closure._plan(system, p), meter)
    except ResourceLimitError as err:
        return "overrun", err.nodes, err.partial_count
    return count, meter.nodes


def grid_digest() -> str:
    digest = hashlib.sha256()
    for n in range(2, 8):
        for e in range(n - 1, 10):
            for alpha in compositions(n, e):
                system = extract_conditions(alpha)
                for p in (2, 3):
                    outcome = metered_outcome(system, p, 300_000)
                    digest.update(repr((alpha, p, outcome)).encode())
    return digest.hexdigest()


def test_grid_outcomes_pinned():
    """The count and nodes, or the overrun's nodes and partial count, of
    every diagonal with n <= 7, e <= 9 at p = 2 and 3 under a budget of
    3*10^5 nodes (930 solves), by digest.  Pinned before values a period
    apart were counted in bulk."""
    assert grid_digest() == (
        "f3b952ba87cd50c9e19e162d30d2af2a797693c2202254ec471c4f7089d4705a"
    )


def periodic_last_system() -> ClosureSystem:
    """x^2 - x + p*x*y == 0 mod p^2 with x, y in [0, p^2): y is read only
    mod p, so the last loop's period is below its width.  x = 0 or
    x == 1 - p*y mod p^2: 2 p^2 solutions."""
    x, y = (1, 2, 0), (1, 3, 0)
    terms = {(((x, 2),), 0): 1, (((x, 1),), 0): -1, (((x, 1), (y, 1)), 1): 1}
    return ClosureSystem((3, 3), [CongruenceCondition(terms, 2)], {x: 2, y: 2})


# systems with periods below their widths: (node total, budget stride)
PERIODIC_SWEEPS = {
    ((3, 2, 1, 1), 7): (175665, 499),
    ((2, 3, 1, 1), 7): (66157, 199),
    ((2, 2, 2, 1), 5): (7130, 17),
    ("periodic last", 5): (650, 1),
}


def sweep_digest() -> str:
    digest = hashlib.sha256()
    for (alpha, p), (total, stride) in PERIODIC_SWEEPS.items():
        system = periodic_last_system() if alpha == "periodic last" else extract_conditions(alpha)
        budgets = {*range(200), *range(total - 200, total + 1), *range(0, total, stride)}
        for budget in sorted(budgets):
            outcome = metered_outcome(system, p, budget)
            digest.update(repr((alpha, p, budget, outcome)).encode())
        assert len(outcome) == 2 and outcome[1] == total  # the total suffices
    return digest.hexdigest()


def test_periodic_budget_sweeps_pinned():
    """Every outcome at budgets 0..199, at the last 200 up to the node
    total and at a stride between, on systems where loops run a period
    below their width, by digest.  Pinned before those periods were
    repeated in bulk, so each bulk step is met both where it fits the
    budget and where it falls back to one value at a time."""
    assert sweep_digest() == (
        "b70b4fe3435a495f8ff1c470b6414df27f145d4a6a96fe73121fd102bcc52237"
    )


def test_periods_of_3211_at_seven(monkeypatch):
    """The scan order is a12, a13, a23, a14, a24.  a12 is read mod p^2, by
    a12*a23 mod p^2.  a13 has width p^2 but is read only mod p, by
    a12*a13 mod p and by p*a13 and p*a13*a14 mod p^2; a14 likewise.  a23
    and a24 have width p.  In the hand-built system y is read mod p by
    p*x*y mod p^2."""
    keys = []
    planned = closure._plan

    def recording(system, p):
        plan = planned(system, p)
        keys.append((plan.box, plan.periods))
        return plan

    monkeypatch.setattr(closure, "_plan", recording)
    assert count_solutions(extract_conditions((3, 2, 1, 1)), 7) == 15043
    assert count_solutions(periodic_last_system(), 5) == 2 * 25
    assert keys == [((49, 49, 7, 49, 7), (49, 7, 7, 7, 7)), ((25, 25), (25, 5))]


@pytest.mark.parametrize("alpha,p", [key for key in PERIODIC_SWEEPS if key[0] != "periodic last"])
def test_periodic_systems_match_scan(alpha, p):
    assert count_solutions(extract_conditions(alpha), p) == scan_by_diagonal(alpha, p)


def test_periodic_last_loop_against_evaluation():
    # no extracted system tested has a last loop whose period is below
    # its width, so the hand-built one is checked against a plain count
    system, p = periodic_last_system(), 5
    (cond,) = system.conditions
    x, y = sorted(system.variable_ranges)
    solutions = sum(
        evaluate(cond.numerator, p, {x: a, y: b}) % p**2 == 0
        for a in range(p**2) for b in range(p**2)
    )
    assert count_solutions(system, p) == solutions


def reference_plan(system: ClosureSystem, p: int):
    """The plan as closure._plan built it in one pass, before it was split
    into a prime-independent skeleton and its values at p; kept as
    written then."""
    rmax = {}
    for cond in system.conditions:
        for mono, _ in cond.numerator:
            for v, _ in mono:
                rmax[v] = max(rmax.get(v, 0), cond.modulus_exponent)
    order = sorted(rmax, key=lambda v: (v[1], v[0], v[2]))
    idx = {v: i for i, v in enumerate(order)}

    free_exponent = sum(system.variable_ranges.values())
    box = []
    for v in order:
        scan = min(system.variable_ranges[v], rmax[v])
        box.append(p**scan)
        free_exponent -= scan

    periods = [1] * len(order)
    checks = [[] for _ in order]
    for cond in system.conditions:
        mod = p**cond.modulus_exponent
        coeffs = {}
        for (mono, k), c in cond.numerator.items():
            coeffs[mono] = coeffs.get(mono, 0) + c * p**k
        terms = []
        last = -1
        for mono, coeff in coeffs.items():
            factors = tuple(idx[v] for v, d in mono for _ in range(d))
            last = max((last, *factors))
            coeff %= mod
            if coeff:
                terms.append((coeff, factors))
                for vi in factors:
                    periods[vi] = max(periods[vi], mod // math.gcd(coeff, mod))
        if last >= 0:
            checks[last].append((mod, tuple(terms)))
        elif terms:
            return None
    return closure._Plan(
        tuple(box),
        tuple(min(q, width) for q, width in zip(periods, box)),
        tuple(map(tuple, checks)),
        p**free_exponent,
    )


def test_skeleton_at_prime_is_the_one_pass_plan():
    """Every diagonal with n <= 6, e <= 8, and the substituted (3, 2, 1,
    1), at p = 2, 3, 5 and 7: one skeleton per system, planned at each
    prime, gives the one-pass plan, term order included."""
    systems = [extract_conditions(alpha)
               for n in range(2, 7) for e in range(n - 1, 9) for alpha in compositions(n, e)]
    systems.append(extract_conditions((3, 2, 1, 1), {(1, 2): 1}))
    for system in systems:
        skeleton = closure._skeleton(system)
        for p in (2, 3, 5, 7):
            plan = closure._at_prime(skeleton, p)
            expected = reference_plan(system, p)
            assert plan == expected and repr(plan) == repr(expected), (system.alpha, p)


def tier_outcome(values, system, p, budget):
    """metered_outcome with the plans that try at most `values` values
    interpreted and the rest compiled."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closure, "_INTERPRETED_VALUES", values)
        return metered_outcome(system, p, budget)


def test_tiers_agree():
    """Every diagonal with n <= 5, e <= 7 at p = 2, 3, 5 and 7, and the
    substituted (3, 2, 1, 1): with every plan interpreted and with every
    plan compiled, the solve gives the same count and nodes, or the same
    overrun, at budgets 0, 1, T - 1, T, two random ones and none, T being
    the node total.  An interpreted plan whose node total overruns the
    budget is handed to the generated counter, so from both settings an
    overrun is the generated counter's.  The default bound sends some of
    these plans to each tier."""
    rng = random.Random(0)
    systems = [extract_conditions(alpha)
               for n in range(2, 6) for e in range(n - 1, 8) for alpha in compositions(n, e)]
    systems.append(extract_conditions((3, 2, 1, 1), {(1, 2): 1}))
    interpreted = set()
    for system in systems:
        for p in (2, 3, 5, 7):
            plan = closure._plan(system, p)
            if plan is not None and plan.box:
                interpreted.add(closure._value_bound(plan) <= closure._INTERPRETED_VALUES)
            _, total = tier_outcome(COMPILED, system, p, None)
            budgets = [0, 1, total - 1, total, None, rng.randint(0, total), rng.randint(0, total)]
            for budget in budgets:
                if budget is None or budget >= 0:
                    expected = tier_outcome(COMPILED, system, p, budget)
                    assert tier_outcome(INTERPRETED, system, p, budget) == expected, (
                        system.alpha, p, budget)
    assert interpreted == {True, False}


def test_interpreted_plan_within_budget_compiles_nothing(monkeypatch):
    """(3, 2, 1, 1) at p = 3 is interpreted: its scan tries at most 1,089
    values, its node total T is 1,737 and it has 459 solutions.  Under a
    budget of T the interpreted count is spent at once and nothing is
    compiled.  Under T - 1 the plan is handed to the generated counter,
    its two functions compiled once, which overruns at node T as with
    every plan compiled."""
    system, p, total = extract_conditions((3, 2, 1, 1)), 3, 1737
    plan = closure._plan(system, p)
    assert (closure._value_bound(plan), len(closure._functions(plan))) == (1089, 2)
    compiled = record_compiles(monkeypatch, closure._INTERPRETED_VALUES)
    assert metered_outcome(system, p, total) == (459, total)
    assert compiled == []
    overrun = metered_outcome(system, p, total - 1)
    assert metered_outcome(system, p, total - 1) == overrun
    assert len(compiled) == 2
    assert overrun[:2] == ("overrun", total) and overrun[2] <= 459
    assert overrun == tier_outcome(COMPILED, system, p, total - 1)


def test_count_plan_is_the_literal_scan():
    """Unbudgeted, _count_plan gives the node total and the count of the
    scan that literal_scan runs value by value, on test_tiers_agree's
    diagonals and primes (the 220 plans that scan a variable)."""
    systems = [extract_conditions(alpha)
               for n in range(2, 6) for e in range(n - 1, 8) for alpha in compositions(n, e)]
    systems.append(extract_conditions((3, 2, 1, 1), {(1, 2): 1}))
    plans = 0
    for system in systems:
        for p in (2, 3, 5, 7):
            plan = closure._plan(system, p)
            if plan is None or not plan.box:
                continue
            plans += 1
            nodes, count = closure._count_plan(plan, 0, [0] * len(plan.box))
            expected, _ = literal_scan(system, p)
            assert (count * plan.free_factor, nodes) == expected, (system.alpha, p)
    assert plans == 220


def test_modulus_exponent_zero_always_holds():
    # a condition mod p^0 reads no variable's value: every value solves it
    x = (1, 2, 0)
    system = ClosureSystem((2, 1), [CongruenceCondition({(((x, 1),), 0): 1}, 0)], {x: 2})
    assert count_solutions(system, 3) == 9


class LiteralOverrun(Exception):
    pass


def scanned_boxes(system, p):
    """The variables that a condition involves, in (col, row, ticks)
    order, and their boxes p^min(range, max modulus exponent of their
    conditions)."""
    rmax = {}
    for cond in system.conditions:
        for mono, _ in cond.numerator:
            for v, _ in mono:
                rmax[v] = max(rmax.get(v, 0), cond.modulus_exponent)
    order = sorted(rmax, key=lambda v: (v[1], v[0], v[2]))
    return order, [p ** min(system.variable_ranges[v], rmax[v]) for v in order]


def literal_scan(system, p, limit=None):
    """The scan that count_solutions documents, run value by value, as
    metered_outcome reports it: (count, nodes), or ("overrun", limit + 1,
    partial count).  Each condition is tested once the last of its
    variables in the scan order is assigned; one value tried is one node,
    depth first.  The unscanned rest of the ranges multiplies the count.

    Returned with the survivors S_(-1), S_0, ..., S_(D-1) of the scan so
    far: S_d is the number of prefixes x_0..x_d that pass every check at
    depths <= d, and S_(-1) is 1 unless a condition without variables
    fails."""
    order, boxes = scanned_boxes(system, p)
    free = p ** sum(system.variable_ranges.values()) // math.prod(boxes)
    tested_at = {}
    for cond in system.conditions:
        variables = [v for mono, _ in cond.numerator for v, _ in mono]
        tested_at.setdefault(max(map(order.index, variables), default=-1), []).append(cond)
    values, nodes, count = {}, 0, 0
    survivors = [0] * (len(order) + 1)  # survivors[d + 1] is S_d

    def passes(d):
        return all(evaluate(cond.numerator, p, values) % p**cond.modulus_exponent == 0
                   for cond in tested_at.get(d, []))

    def scan(d):
        nonlocal nodes, count
        if d == len(order):
            count += 1
            return
        for value in range(boxes[d]):
            nodes += 1
            if limit is not None and nodes > limit:
                raise LiteralOverrun
            values[order[d]] = value
            if passes(d):
                survivors[d + 1] += 1
                scan(d + 1)

    try:
        if passes(-1):
            survivors[0] = 1
            scan(0)
    except LiteralOverrun:
        return ("overrun", nodes, count * free), survivors
    return (count * free, nodes), survivors


@st.composite
def closure_systems(draw):
    """(system, p): 1-9 variables of ranges 1-3, 1-14 conditions of 1-4
    terms of degree <= 3 with p-exponents 0-2, moduli p^1..p^3, and at
    most 2*10^4 values in the scanned box."""
    p = draw(st.sampled_from((2, 3, 5)))
    slots = st.tuples(st.integers(1, 4), st.integers(2, 6), st.integers(0, 1))
    variables = draw(st.lists(slots, min_size=1, max_size=9, unique=True))
    ranges = {v: draw(st.integers(1, 3)) for v in variables}
    monomials = st.lists(st.sampled_from(variables), max_size=3).map(
        lambda vs: tuple(sorted(Counter(vs).items())))
    numerators = st.dictionaries(
        st.tuples(monomials, st.integers(0, 2)),
        st.integers(-6, 6).filter(bool), min_size=1, max_size=4)
    conditions = draw(st.lists(
        st.builds(CongruenceCondition, numerators, st.integers(1, 3)), min_size=1, max_size=14))
    system = ClosureSystem((1,), conditions, ranges)
    assume(math.prod(scanned_boxes(system, p)[1]) <= 2 * 10**4)
    return system, p


@settings(max_examples=60, deadline=None)
@given(closure_systems(), st.data())
def test_literal_scan_agrees_with_both_tiers(case, data):
    system, p = case
    (count, total), survivors = literal_scan(system, p)
    # each survivor of depth d - 1 tries the whole box of depth d, and each
    # of depth D - 1 counts once per value of the unscanned ranges
    _, boxes = scanned_boxes(system, p)
    assert total == sum(s * w for s, w in zip(survivors, boxes))
    free = p ** sum(system.variable_ranges.values()) // math.prod(boxes)
    assert count == survivors[-1] * free
    for budget in (None, 0, total - 1, total, data.draw(st.integers(0, total))):
        if budget is not None and budget < 0:
            continue
        expected = (count, total) if budget is None else literal_scan(system, p, budget)[0]
        for tier in (COMPILED, INTERPRETED):
            assert tier_outcome(tier, system, p, budget) == expected, (tier, budget)


@settings(max_examples=60, deadline=None)
@given(closure_systems())
def test_skeleton_at_prime_is_the_one_pass_plan_on_built_systems(case):
    """Hand-built systems reach what extraction never makes: a monomial
    with two p-exponents, a coefficient that vanishes at p, a constant
    condition."""
    system, p = case
    assert closure._plan(system, p) == reference_plan(system, p)
