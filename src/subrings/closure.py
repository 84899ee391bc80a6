"""Symbolic row reduction of the closure systems.

For a diagonal composition alpha, the candidate irreducible matrix has
entries p*a_ij with a_ij ranging over [0, p^(e_i - 1)).  Row-reducing the
augmented system [A | v_i o v_j] over coefficients m*p^k (k possibly
negative during the reduction) turns each non-integral entry of the
solution vector into one congruence condition

    numerator(a_..) == 0  (mod p^r)

with r minimal.  A polynomial is a plain dict of its terms,
{(monomial, p_exponent): coefficient}: a monomial is a sorted tuple of
(variable, degree) pairs, and the coefficient of p^k times it is a
nonzero int.  Every matrix entry is a single term, so each product in
the reduction shifts monomials and p-exponents without merging; equal
conditions are recognised by their terms, and rendered as text only
for output.  The prime stays symbolic, so one extraction serves every
p; solutions are then counted by exhaustion at a concrete prime.  That
count is g_alpha(p): counting.count_by_diagonal is extract_conditions
followed by count_solutions, and the HNF scan in counting is the oracle
it is checked against.

A system's plan at a prime (box widths, periods and per-depth checks)
is built in two stages: its skeleton, which does not depend on p (scan
order, box exponents, each condition's terms grouped by monomial), and
the skeleton's values at p.  A caller that counts one system at several
primes, as counting does, builds the skeleton once.

The exhaustion has two tiers, chosen from the plan.  A plan whose scan
tries at most _INTERPRETED_VALUES values is counted by a recursive
function that reads the plan (_count_plan) and takes no budget: it
returns the full scan's node total with the count, and the total is
spent at once when it fits what the budget has left.  A larger plan, and
a small one whose total does not fit, is counted by Python generated for
it (codegen), which costs a compile but runs each value far faster.  The
generated counter is the one engine that follows the scan value by value
under the budget, so every overrun, its nodes and its partial count, is
the generated counter's.  A generated function is compiled once per
shape, in a per-process LRU cache of 256 entries, room for every shape
that a round of interleaved composition families comes back to; the
node budget is an argument too, so diagonals of the same structure, the
same diagonal at other primes and every call of a budget sweep share one
compile.  A node is one value of one scanned variable's box, as the
full scan would try it, whether or not it is tried.

A term c*x*... of a condition mod p^r reads x only mod p^r / p^v_p(c), so
each scanned variable has a period, at most its width: values a period
apart have the same tests and the same subtrees below.  Counts are never
cached, across solves or within one: every node is charged; each period
runs once, and its nodes and count are repeated in bulk for the rest of
the width, by the generated counter whenever that fits the budget.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import CodeType, FunctionType
from typing import NamedTuple

from .codegen import _counter_source, _functions
from .limits import ResourceLimitError, _Budget, _is_int, require_instance, require_prime
from .partitions import composition
from .polyp import PolyP

# a variable is (row, col, ticks): the HNF entry slot plus the number of
# rescaling substitutions applied to it
Var = tuple[int, int, int]


def var_name(v: Var) -> str:
    i, j, ticks = v
    return f"a{i}{j}" + "'" * ticks


# Extracting the benchmark's 266 congruence systems multiplies monomials
# 10,349 times but forms only 285 distinct products.  Remembering them
# takes extraction from 26.4 to 21.1 ms (two-core host, Python 3.11,
# medians of 21 passes; when first added, from about 33 to 27 ms, and a
# congruence round from 0.205 to 0.193 s, for 0.11 MiB of peak RSS).
# Monomials are tuples, so the cached products are shared safely.
@functools.lru_cache(maxsize=4096)
def _mono_mul(m1, m2):
    exp = dict(m1)
    for v, d in m2:
        exp[v] = exp.get(v, 0) + d
    return tuple(sorted(exp.items()))


def _poly_text(terms: dict) -> str:
    """Canonical rendering of a polynomial given term by term: monomials
    sorted by variable name, integer coefficients written as polynomials
    in p (every p-exponent is >= 0), signs folded into the joining
    operators."""
    # each monomial's coefficient {k: c}, a polynomial in p
    coeffs: dict = {}
    for (mono, k), c in terms.items():
        coeffs.setdefault(mono, {})[k] = c
    rendered = []
    for mono, coeff in coeffs.items():
        mono_txt = "*".join(
            var_name(v) + (f"^{d}" if d > 1 else "")
            for v, d in sorted(mono, key=lambda t: var_name(t[0]))
        )
        rendered.append((mono_txt, coeff))
    rendered.sort(key=lambda t: t[0])
    out = ""
    for mono_txt, coeff in rendered:
        negative = len(coeff) == 1 and min(coeff.values()) < 0
        if negative:
            coeff = {k: -c for k, c in coeff.items()}
        body = str(PolyP([coeff.get(k, 0) for k in range(max(coeff) + 1)]))
        if " " in body:
            body = f"({body})"
        if mono_txt:
            body = mono_txt if body == "1" else f"{body}*{mono_txt}"
        if out:
            out += " - " if negative else " + "
        elif negative:
            out = "-"
        out += body
    return out or "0"


@dataclass(frozen=True)
class CongruenceCondition:
    """numerator == 0 (mod p^modulus_exponent), the numerator given by its
    terms {(monomial, p_exponent): int}.  Extraction leaves every
    p-exponent >= 0, and at least one equal to 0."""

    numerator: dict
    modulus_exponent: int

    def text(self) -> str:
        return f"{_poly_text(self.numerator)} ≡ 0 mod p^{self.modulus_exponent}"


@dataclass
class ClosureSystem:
    """Conditions plus the residue box they constrain.

    variable_ranges maps each surviving variable to the exponent E with
    range [0, p^E); substituted variables carry their reduced range.
    """

    alpha: tuple[int, ...]
    conditions: list[CongruenceCondition]
    variable_ranges: dict[Var, int]

    def texts(self) -> list[str]:
        return [c.text() for c in self.conditions]


def extract_conditions(
    alpha, substitutions: dict[tuple[int, int], int] | None = None
) -> ClosureSystem:
    """Symbolic back substitution for every pair 1 <= i <= j <= n-1.

    substitutions maps an entry slot (i, j) to k, rescaling that variable
    to p^k times a fresh variable (only sound when the raw conditions force
    the corresponding divisibility, which is how the hand-simplified
    forms arise).  A slot whose range is forced to 0 accepts only k = 0.
    Conditions with denominator exponent 0 are omitted.
    """
    parts = composition(alpha)
    if substitutions is not None:
        require_instance("extract_conditions", "substitutions", substitutions, dict)
    subs = dict(substitutions or {})
    m = len(parts)

    ranges: dict[Var, int] = {}
    # rows[c][d] is the entry b(c+1, d+1) of the matrix, 0-based: a single
    # term (monomial, p-exponent) with coefficient 1, or None when it is
    # zero or below the diagonal
    rows: list[list[tuple | None]] = [[None] * m for _ in range(m)]
    for i in range(1, m + 1):
        row = rows[i - 1]
        row[i - 1] = ((), parts[i - 1])
        for j in range(i + 1, m + 1):
            est = parts[i - 1] - 1
            k = subs.pop((i, j), 0)
            if type(k) is bool or not isinstance(k, int):
                raise ValueError(f"substitution for slot ({i},{j}) must be an int, got {k!r}")
            if k < 0 or k > est:
                raise ValueError(f"substitution p^{k} out of range for slot ({i},{j})")
            if est - k <= 0:
                continue  # range [0, p^0): forced 0
            var = (i, j, 1 if k else 0)
            ranges[var] = est - k
            row[j - 1] = (((var, 1),), 1 + k)
    if subs:
        raise ValueError(f"substitutions for unknown slots: {sorted(subs)}")

    conditions: list[CongruenceCondition] = []
    seen: set[tuple] = set()
    mono_mul = _mono_mul
    for j in range(m):
        for i in range(j + 1):
            # back substitution in the leading (i+1) x (i+1) block against
            # the entrywise product of columns i and j: x[c] = (b(c, i)
            # b(c, j) - sum over d > c of b(c, d) x[d]) / p^(parts[c]),
            # each product by an entry a shift of monomials and
            # p-exponents.  No two terms share a monomial, so none merges:
            # x[d]'s monomials hold variables of rows >= d only, so every
            # term of b(c, d) x[d] has the one row-c factor b(c, d), of
            # degree 1, and b(c, i) b(c, j) has degree 2 in row c when
            # c < i.  low[c] is x[c]'s lowest p-exponent, taken from each
            # low[d] shifted by b(c, d)'s
            x: list[dict] = [{}] * (i + 1)
            low = [0] * (i + 1)
            for c in range(i, -1, -1):
                row = rows[c]
                shift = parts[c]
                acc: dict = {}
                least = 0
                bi, bj = row[i], row[j]
                if bi is not None and bj is not None:
                    least = bi[1] + bj[1] - shift
                    acc[(mono_mul(bi[0], bj[0]), least)] = 1
                for d in range(c + 1, i + 1):
                    term = row[d]
                    xd = x[d]
                    if term is None or not xd:
                        continue
                    mono, k = term
                    k -= shift
                    if not acc or low[d] + k < least:
                        least = low[d] + k
                    for (m2, k2), coeff in xd.items():
                        acc[(mono_mul(m2, mono), k2 + k)] = -coeff
                x[c] = acc
                low[c] = least
            for c in range(i + 1):
                if not x[c] or low[c] >= 0:
                    continue
                r = -low[c]
                # x[c] and r give the numerator, and the numerator gives them
                key = (frozenset(x[c].items()), r)
                if key in seen:
                    continue
                seen.add(key)
                # clear the denominator: multiply by p^r
                numerator = {(mono, k + r): coeff for (mono, k), coeff in x[c].items()}
                conditions.append(CongruenceCondition(numerator, r))
    return ClosureSystem(parts, conditions, ranges)


def count_solutions(
    system: ClosureSystem, p: int, node_budget: int | None = None
) -> int:
    """Joint solutions of the congruence system at a concrete prime.

    Each variable that a condition involves is scanned over its residue
    box modulo p^(max r over those conditions), column by column and top
    to bottom within a column, the order in which the HNF scan fills the
    entries.  The rest of every variable's range, and every variable no
    condition involves, contributes a free multiplicative factor.
    Conditions are tested as soon as their last variable is assigned.

    A scan that tries at most _INTERPRETED_VALUES values (the sum over
    the scanned variables of the product of the periods up to it) is run
    by a recursive function over the plan of this system and p, without
    a budget: it gives the full scan's node total, which is spent at once
    when it fits in node_budget.  A larger scan, and a small one whose
    total does not fit, is run by a nested-loop counter generated for
    them: a condition's coefficients in its last variable are computed
    outside that variable's loop, so the innermost loops only evaluate
    one polynomial in one variable per condition.  Each function of the
    counter is compiled once per shape (its loops, their period steps
    and the factors of each check's terms) in a bounded cache, and run
    with the widths, periods, moduli and coefficients of this system and
    p.  It follows the scan value by value up to the budget, so an
    overrun's nodes and partial count are always the generated
    counter's.

    Both tiers charge every node, and run each period once: where a
    variable is read only mod a power of p below its width, the first
    period is scanned and the rest of the width charged and counted in
    bulk (by the generated counter only while that fits the budget), so
    the count, the nodes and any overrun are those of the full scan.
    node_budget bounds the nodes: the values of every scanned variable's
    box that the full scan would try, including those charged in bulk.
    The empty diagonal's system, with no variable and no condition,
    counts 1, as count_by_diagonal(()) does.

    A hand-built system is refused with a ValueError naming the field
    that does not read as documented: a variable that is not (row, col,
    ticks) ints or has no range; a range, p-exponent or modulus exponent
    that is not an int >= 0; a coefficient that is not an int; a degree
    that is not an int >= 1; a numerator that is not a dict; conditions
    that are not a sequence of CongruenceConditions.  A modulus exponent
    of 0 is a condition that always holds.
    """
    _require_system(system)
    require_prime(p)
    budget = _Budget(f"count_solutions(alpha={system.alpha}, p={p})", node_budget)
    return _count(_plan(system, p), budget)


def _require_system(system) -> None:
    """ValueError naming the first field of system that the solve cannot
    read.  Extraction's systems pass, so counting does not check them.
    Exact ints take a fast path: a round of the benchmark's congruence
    workload checks 1,533 ranges, 1,815 conditions and 4,830 terms."""
    require_instance("count_solutions", "system", system, ClosureSystem)
    ranges, conditions = system.variable_ranges, system.conditions
    _require("variable_ranges", ranges, isinstance(ranges, dict) and all(
        type(v) is tuple and len(v) == 3 and type(v[0]) is type(v[1]) is type(v[2]) is int
        and (type(r) is int or _is_int(r)) and r >= 0 for v, r in ranges.items()))
    _require("conditions", conditions, isinstance(conditions, Sequence) and all(
        isinstance(cond, CongruenceCondition) for cond in conditions))
    for cond in conditions:
        r = cond.modulus_exponent
        _require("modulus_exponent", r, (type(r) is int or _is_int(r)) and r >= 0)
        _require("numerator", cond.numerator, _is_numerator(cond.numerator, ranges))


def _is_numerator(numerator, ranges: dict) -> bool:
    """Whether numerator maps each (monomial, k) to an int, each k being an
    int >= 0 and each monomial pairing variables of ranges with int
    degrees >= 1."""
    if not isinstance(numerator, dict):
        return False
    try:
        for (mono, k), c in numerator.items():
            if not (type(k) is type(c) is int or _is_int(k) and _is_int(c)) or k < 0:
                return False
            for v, d in mono:
                if v not in ranges or not (type(d) is int or _is_int(d)) or d < 1:
                    return False
    except (TypeError, ValueError):
        return False
    return True


def _require(field: str, value, ok: bool) -> None:
    """ValueError naming system.field, whose value is value, unless ok."""
    if not ok:
        raise ValueError(f"count_solutions requires a well-formed system.{field}, got {value!r}")


class _Plan(NamedTuple):
    """One system at one prime, ready to count.  box and periods give each
    scanned variable's width and period, in scan order.  checks[d] lists
    the conditions tested in the loop over x<d>, each as (modulus, terms),
    a term being (coefficient reduced mod the modulus, factors) with the
    index of each variable once per degree.  free_factor counts the values
    that no condition reads."""

    box: tuple[int, ...]
    periods: tuple[int, ...]
    checks: tuple
    free_factor: int


def _count(plan: _Plan | None, budget: _Budget) -> int:
    """The solutions of a plan (None: a condition no value solves),
    spending from budget.  A small plan is counted without the budget and
    its node total spent at once if it fits; otherwise, as for a large
    plan, the generated counter runs it, and finds any overrun, whose
    partial count is the solutions found so far."""
    if plan is None:
        return 0
    if not plan.box:
        return plan.free_factor
    if _value_bound(plan) <= _INTERPRETED_VALUES:
        nodes, count = _count_plan(plan, 0, [0] * len(plan.box))
        if nodes <= budget.limit - budget.nodes:
            budget.nodes += nodes
            return count * plan.free_factor

    def overrun(nodes: int, count: int):
        raise ResourceLimitError(budget.context, nodes, budget.limit, count * plan.free_factor)

    # a fresh namespace per solve: overrun raises for this budget, and the
    # count<s> functions call each other through it.  Each is built from
    # its shape's compiled code with this solve's literals as the defaults
    # of its last parameters.  (Patched into copies of the compiled
    # constants instead, they would spare each call of a deeper function
    # copying them, but those copies raised the congruence workload's peak
    # RSS by 0.13 MiB.)  The functions' globals are the namespace itself,
    # a reference cycle that the finally clause breaks, so a solve leaves
    # nothing for the cycle collector.
    namespace = {"__builtins__": {}, "range": range, "overrun": overrun}
    try:
        for shape, literals in _functions(plan):
            namespace[f"count{shape[0]}"] = FunctionType(
                _compiled_function(shape), namespace, None, literals)
        budget.nodes, count = namespace["count0"](budget.nodes, 0, budget.limit)
    finally:
        namespace.clear()
    return count * plan.free_factor


# The most values a plan's scan may try (_value_bound) for _count_plan to
# count it; larger plans are compiled.  Per solve of the benchmark's
# congruence workload (256 solves that scan a variable, best of five
# each, medians per size; two-core host, Python 3.11), the budget-free
# interpreted count took 0.012-0.015 ms on plans of at most 64 values
# against 0.27-0.43 ms to compile and run the counter (0.011-0.016 ms
# with its code cached), 0.59-0.77 ms against 1.07-1.53 ms (0.15-0.27 ms)
# on plans of 1,025-4,096 values, and 1.0-1.4 ms against 0.8-1.2 ms
# (0.25-0.43 ms) on plans of 16,385-65,536.  The median solve there has a
# bound of 124 values.  Fresh processes that extract and count the whole
# workload (ten per bound, alternating) took 0.87, 0.83, 0.78 and 0.85
# times as long as with every plan compiled at bounds 1024, 4096, 16384
# and 65536 (medians of the paired ratios, which spread from 0.5 to 1.3):
# the best value is broad.  At 4096 an unbudgeted round compiles 26
# shapes instead of 131.
_INTERPRETED_VALUES = 4096


def _value_bound(plan: _Plan) -> int:
    """The most values _count_plan tries on plan, as does the generated
    counter while its period batches fit the budget: sum over d of
    periods[0] * ... * periods[d]."""
    total, prefixes = 0, 1
    for period in plan.periods:
        prefixes *= period
        total += prefixes
    return total


def _count_plan(plan: _Plan, d: int, xs: list) -> tuple[int, int]:
    """The loops over x<d>, x<d+1>, ... of plan, interpreted, with x0 ..
    x<d-1> in xs: the (nodes, count) of the full scan below them.  Each
    loop charges its whole width, and the values past its first period
    repeat that period's subtrees, so one period is scanned and its
    subtrees' nodes and count taken width // period times."""
    width, period, checks = plan.box[d], plan.periods[d], plan.checks[d]
    repeats = width // period
    nodes = count = 0
    if d == len(plan.box) - 1:
        for x in range(period):
            xs[d] = x
            count += _passes(checks, xs)
        return width, count * repeats
    for x in range(period):
        xs[d] = x
        if not checks or _passes(checks, xs):
            below, found = _count_plan(plan, d + 1, xs)
            nodes += below
            count += found
    return width + nodes * repeats, count * repeats


def _passes(checks: tuple, xs: list) -> bool:
    """Whether the values in xs solve every condition of checks."""
    for mod, terms in checks:
        value = 0
        for coeff, factors in terms:
            for vi in factors:
                coeff *= xs[vi]
            value += coeff
        if value % mod:
            return False
    return True


class _Skeleton(NamedTuple):
    """The part of a system's plan that does not depend on the prime.
    scans holds the exponent of each scanned variable's box, in scan
    order: p^min(range, largest modulus exponent of its conditions).
    free_exponent is that of the values no condition reads.  conditions
    holds each condition as (modulus exponent, last, terms), last being
    the depth of its last variable (-1 for a condition without one), and
    each term (factors, pairs) one monomial of its numerator: factors the
    index of each variable once per degree, pairs the (p-exponent,
    coefficient) pairs of the monomial's coefficient, a polynomial in p."""

    scans: tuple[int, ...]
    free_exponent: int
    conditions: tuple


def _plan(system: ClosureSystem, p: int) -> _Plan | None:
    """The scan of system at p, or None when a condition reduces to a
    nonzero constant, which no value solves."""
    return _at_prime(_skeleton(system), p)


def _skeleton(system: ClosureSystem) -> _Skeleton:
    """The prime-independent part of system's plan, built once for every
    prime that counts it."""
    rmax: dict[Var, int] = {}
    for cond in system.conditions:
        r = cond.modulus_exponent
        for mono, _ in cond.numerator:
            for v, _ in mono:
                old = rmax.get(v, 0)
                rmax[v] = r if r > old else old
    order = sorted(rmax, key=lambda v: (v[1], v[0], v[2]))
    idx = {v: i for i, v in enumerate(order)}
    ranges = system.variable_ranges
    scans = tuple(min(ranges[v], rmax[v]) for v in order)

    conditions = []
    for cond in system.conditions:
        by_mono: dict[tuple, list] = {}
        for (mono, k), c in cond.numerator.items():
            if mono in by_mono:
                by_mono[mono].append((k, c))
            else:
                by_mono[mono] = [(k, c)]
        terms = []
        last = -1
        for mono, pairs in by_mono.items():
            factors = []
            for v, d in mono:
                i = idx[v]
                if i > last:
                    last = i
                if d == 1:
                    factors.append(i)
                else:
                    factors += [i] * d
            terms.append((tuple(factors), tuple(pairs)))
        conditions.append((cond.modulus_exponent, last, tuple(terms)))
    return _Skeleton(scans, sum(ranges.values()) - sum(scans), tuple(conditions))


def _at_prime(skeleton: _Skeleton, p: int) -> _Plan | None:
    """skeleton's plan at p, or None when a condition reduces to a
    nonzero constant, which no value solves.

    Each condition gets its modulus and its terms, with the coefficients
    reduced mod that modulus, filed under its last variable.  A term
    c*x*... mod p^r reads x only mod p^r / p^v_p(c), so values of x that
    far apart pass the same tests: x's period is the largest such step
    over the terms containing it, 1 if none does, capped at its box."""
    box = tuple(p**scan for scan in skeleton.scans)
    periods = [1] * len(box)
    checks: list[list[tuple[int, tuple]]] = [[] for _ in box]
    for r, last, cond_terms in skeleton.conditions:
        mod = p**r
        terms = []
        for factors, pairs in cond_terms:
            coeff = 0
            for k, c in pairs:
                coeff += c * p**k
            coeff %= mod
            if coeff:
                terms.append((coeff, factors))
                step = mod // math.gcd(coeff, mod)
                for vi in factors:
                    if periods[vi] < step:
                        periods[vi] = step
        if last >= 0:
            checks[last].append((mod, tuple(terms)))
        elif terms:
            return None
    return _Plan(
        box,
        tuple(q if q < width else width for q, width in zip(periods, box)),
        tuple(map(tuple, checks)),
        p**skeleton.free_exponent,
    )


# How many compiled functions one process keeps, least recently used
# dropped first.  A function depends only on its shape, which recurs across
# diagonals of the same structure, across primes and across the calls of a
# budget sweep.  The size holds a whole working set: with every plan
# compiled, a round of the benchmark's congruence workload (seeds 1-5,
# 287 solves) runs 503 functions of 131 distinct shapes, interleaving
# five composition families, and the shapes of g over (5,7), (6,8),
# (6,9), (7,9), (8,10), (7,8), (5,9), (4,10) and (6,7) at p = 2, 3, 5, 7
# and 11 number 159.  With 256 entries a round compiles each of its 131
# shapes once, where 48 entries evicted shapes that came back and
# compiled 196-216.  With the small plans interpreted, only the plans
# above _INTERPRETED_VALUES reach the cache, and a small plan only when
# its node total overruns the budget, which ends the call: a fresh
# congruence round (seed 9, rounds 1-5) runs 38 functions of 26 shapes,
# and a scan round 8-51 functions of 8-34 shapes.  An entry holds about
# 1.75 KiB of code and 1.25 KiB of shape key (tracemalloc), so a full
# cache about 0.75 MiB; the round's peak RSS rose by about 0.12 MiB
# (0.6 %).
_FUNCTION_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_FUNCTION_CACHE_SIZE)
def _compiled_function(shape: tuple) -> CodeType:
    """The code of count<start> for this shape.  Neither the literals nor
    the budget are in the text, so every prime and every budget that give
    one shape share one compile."""
    module = compile(_counter_source(shape), "<counter>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))
