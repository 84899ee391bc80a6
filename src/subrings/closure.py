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

The exhaustion counts survivors: for each depth, the values of one
period per loop that pass every check down to that depth.  Values a
period apart pass alike, so the full scan's node total and count follow
from those survivors by one formula (_totals).  Two tiers count them,
chosen from the plan: a plan whose loops try at most
_INTERPRETED_VALUES values, one period each, is counted by a recursive
function that reads the plan (_count_plan), and a larger plan by Python
generated for it (codegen), which costs a compile but runs each value
far faster.  A generated function is compiled once per shape, in a
per-process LRU cache of 256 entries, so diagonals of the same
structure and the same diagonal at other primes share one compile.
Neither tier sees the node budget: _scan spends it, counting whole the
loops whose values fit what is left, and walking the others in scan
order, so every overrun, its nodes and its partial count, is _scan's.  A
node is one value of one scanned variable's box, as the full scan would
try it, whether or not it is tried.

A term c*x*... of a condition mod p^r reads x only mod p^r / p^v_p(c), so
each scanned variable has a period, at most its width: values a period
apart have the same tests and the same subtrees below.  Counts are never
cached, across solves or within one, and every node is charged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .codegen import _count_compiled
from .limits import (
    ResourceLimitError, _Budget, _is_int, _require_system, require_instance, require_prime,
)
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

    substitutions maps an entry slot (i, j), a pair of ints, to k,
    rescaling that variable to p^k times a fresh variable (only sound when
    the raw conditions force the corresponding divisibility, which is how
    the hand-simplified forms arise).  A slot whose range is forced to 0
    accepts only k = 0.
    Conditions with denominator exponent 0 are omitted.
    """
    parts = composition(alpha)
    if substitutions is not None:
        require_instance("extract_conditions", "substitutions", substitutions, dict)
    subs = dict(substitutions or {})
    for key in subs:
        if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_int, key))):
            raise ValueError(f"substitutions keys must be slots (i, j) of two ints, got {key!r}")
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

    A variable read only mod a power of p below its width has a period:
    values a period apart pass the same tests, so one period of each loop
    is scanned, and the values of it that pass every check down to each
    depth, the survivors, give the full scan's count and nodes.  A scan
    whose loops try at most _INTERPRETED_VALUES values, one period
    each (the sum over the scanned variables of the product of the
    periods up to it), is run by a recursive function over the plan of
    this system and p.  A larger scan is run by a nested-loop counter
    generated for it: a condition's coefficients in its last variable
    are computed outside that variable's loop, so the innermost loops
    only evaluate one polynomial in one variable per condition.  Each
    function of the counter is compiled once per shape (its loops and
    the factors of each check's terms) in a bounded cache, and run with
    the periods, moduli and coefficients of this system and p.

    node_budget bounds the nodes: the values of every scanned variable's
    box that the full scan would try, those past the first period
    included.  Neither tier takes the budget.  A scan whose loops try at
    most as many values as there are nodes left, one period each, and
    whose node total fits them, is counted whole and its total spent at
    once; otherwise it is walked in scan order, each loop taking whole
    periods while they fit, to the node that overruns, and the overrun
    reports the solutions found before it.
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
    require_instance("count_solutions", "system", system, ClosureSystem)
    _require_system(system, CongruenceCondition)
    require_prime(p)
    budget = _Budget(f"count_solutions(alpha={system.alpha}, p={p})", node_budget)
    return _count(_plan(system, p), budget)


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
    spending from budget; past its limit, the overrun that _scan finds,
    whose partial count is the solutions found before it."""
    if plan is None:
        return 0
    room = budget.limit - budget.nodes
    nodes, count = _scan(plan, 0, [0] * len(plan.box), room)
    if nodes > room:
        raise ResourceLimitError(
            budget.context, budget.nodes + nodes, budget.limit, count * plan.free_factor)
    budget.nodes += nodes
    return count * plan.free_factor


def _scan(plan: _Plan, d: int, xs: list, room: int) -> tuple[int, int]:
    """The (nodes, count) of the scan of the loops over x<d>, x<d+1>, ...
    below x0 .. x<d-1> in xs (with no loops left, (0, 1)), or, where more
    than room nodes are needed, (room + 1, the count found before the
    node that overruns).

    Loops that try at most room values, one period each, are counted
    without the budget, and taken whole if their nodes fit.  Otherwise one
    period of x<d> is walked in scan order, as many whole periods taken
    as fit, and the period that crosses the limit walked again up to it."""
    if d == len(plan.box):
        return 0, 1
    bound = _value_bound(plan, d)
    if bound <= room:
        survivors = [0] * len(plan.box)
        tier = _count_plan if bound <= _INTERPRETED_VALUES else _count_compiled
        tier(plan, d, xs, survivors)
        nodes, count = _totals(plan, d, survivors)
        if nodes <= room:
            return nodes, count
    nodes, count = _walk(plan, d, xs, room)
    if nodes > room:
        return nodes, count
    repeats = plan.box[d] // plan.periods[d]
    taken = min(repeats, room // nodes)
    if taken < repeats:
        below, found = _walk(plan, d, xs, room - nodes * taken)
        return nodes * taken + below, count * taken + found
    return nodes * repeats, count * repeats


def _walk(plan: _Plan, d: int, xs: list, room: int) -> tuple[int, int]:
    """_scan over one period of x<d>: each value one node, and each that
    passes x<d>'s checks the subtree below it."""
    checks = plan.checks[d]
    nodes = count = 0
    for x in range(plan.periods[d]):
        if nodes >= room:
            return room + 1, count
        nodes += 1
        xs[d] = x
        if not checks or _passes(checks, xs):
            below, found = _scan(plan, d + 1, xs, room - nodes)
            nodes += below
            count += found
    return nodes, count


def _totals(plan: _Plan, d: int, survivors: list) -> tuple[int, int]:
    """The full scan's (nodes, count) below x0 .. x<d-1> from survivors[i],
    the values of one period of each x<i> (i >= d) that pass every check
    down to depth i.  Values a period apart pass alike, so the scan's
    prefixes that pass depth i are survivors[i] times the repeats
    width // period of depths d .. i, and each that passes depth i - 1
    tries depth i's whole width."""
    nodes, prefixes, repeats = 0, 1, 1
    for i in range(d, len(plan.box)):
        nodes += prefixes * plan.box[i]
        repeats *= plan.box[i] // plan.periods[i]
        prefixes = survivors[i] * repeats
    return nodes, prefixes


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


def _value_bound(plan: _Plan, d: int = 0) -> int:
    """The most values a count of the loops from depth d on tries, one
    period each: sum over i >= d of periods[d] * ... * periods[i]."""
    total, prefixes = 0, 1
    for period in plan.periods[d:]:
        prefixes *= period
        total += prefixes
    return total


def _count_plan(plan: _Plan, d: int, xs: list, survivors: list) -> None:
    """The loops over x<d>, x<d+1>, ... of plan, interpreted, with x0 ..
    x<d-1> in xs, each over one period: adds to survivors[i] the values
    of x<i> that pass every check down to depth i."""
    checks = plan.checks[d]
    if d == len(plan.box) - 1:
        count = 0
        for x in range(plan.periods[d]):
            xs[d] = x
            count += _passes(checks, xs)
        survivors[d] += count
        return
    for x in range(plan.periods[d]):
        xs[d] = x
        if not checks or _passes(checks, xs):
            survivors[d] += 1
            _count_plan(plan, d + 1, xs, survivors)


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
