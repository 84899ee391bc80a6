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

The exhaustion has two tiers, chosen from the plan of one system at one
prime (box widths, periods and per-depth checks): a plan whose scan can
try at most _INTERPRETED_VALUES values is counted by a recursive
function that reads the plan (_count_plan), and a larger one by Python
generated for it, which costs a compile but runs each value far faster.
Both charge the same nodes and give the same counts and overruns.

The generated counter has one nested `for` loop per scanned variable,
each condition tested in the loop of its last variable by Horner's rule,
with its coefficients in that variable computed (and reduced mod p^r) as
soon as the outer variables they use are assigned.  It is cut into
functions of a few loops each, and the text of a function depends only
on its shape:
its loops, which of them have a period step, and the factors of each
check's nonzero terms.  The widths, periods, repeat counts, moduli and
reduced coefficients are its literals, bound to its last parameters as
their defaults when a solve builds the function.  A function is compiled
once per shape, in a per-process LRU cache of 256 entries, room for
every shape that a round of interleaved composition families comes back
to; the node budget is an argument too, so diagonals of the same
structure, the same diagonal at other primes and every call of a budget
sweep share one compile.  A node is one value of one scanned variable's
box, as the full scan would try it, whether or not it is tried.

A term c*x*... of a condition mod p^r reads x only mod p^r / p^v_p(c), so
each scanned variable has a period, at most its width: values a period
apart have the same tests and the same subtrees below.  Counts are never
cached, across solves or within one: every node is charged; each period
runs once, and its nodes and count are repeated in bulk for the rest of
the width whenever that fits the budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import CodeType, FunctionType
from typing import NamedTuple

from .limits import ResourceLimitError, _Budget, require_instance, require_prime
from .partitions import composition
from .polyp import PolyP

# a variable is (row, col, ticks): the HNF entry slot plus the number of
# rescaling substitutions applied to it
Var = tuple[int, int, int]


def var_name(v: Var) -> str:
    i, j, ticks = v
    return f"a{i}{j}" + "'" * ticks


def _accumulate(terms: dict, key, c: int) -> None:
    """terms[key] += c, dropping the term when it cancels."""
    s = terms.get(key, 0) + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


# Extracting the benchmark's 266 congruence systems multiplies monomials
# 10,349 times but forms only 285 distinct products.  Remembering them took
# extraction from about 0.033 to 0.027 s, and a congruence round from
# 0.205 to 0.193 s, for 0.11 MiB of peak RSS.  Monomials are tuples, so
# the cached products are shared safely.
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
    if not terms:
        return "0"
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
    pieces = []
    for mono_txt, coeff in rendered:
        negative = False
        if len(coeff) == 1:
            ((k, c),) = coeff.items()
            if c < 0:
                negative = True
                coeff = {k: -c}
        body = str(PolyP([coeff.get(k, 0) for k in range(max(coeff) + 1)]))
        if " " in body:
            body = f"({body})"
        if not mono_txt:
            term = body
        elif body == "1":
            term = mono_txt
        else:
            term = f"{body}*{mono_txt}"
        pieces.append((negative, term))
    neg, term = pieces[0]
    out = ("-" if neg else "") + term
    for neg, term in pieces[1:]:
        out += (" - " if neg else " + ") + term
    return out


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
    # every entry b(i, j) of the matrix is a single term (monomial,
    # p-exponent) with coefficient 1, or None when it is zero
    entries: dict[tuple[int, int], tuple | None] = {}
    for i in range(1, m + 1):
        entries[(i, i)] = ((), parts[i - 1])
        for j in range(i + 1, m + 1):
            est = parts[i - 1] - 1
            k = subs.pop((i, j), 0)
            if type(k) is bool or not isinstance(k, int):
                raise ValueError(f"substitution for slot ({i},{j}) must be an int, got {k!r}")
            if k < 0 or k > est:
                raise ValueError(f"substitution p^{k} out of range for slot ({i},{j})")
            if est - k <= 0:
                entries[(i, j)] = None  # range [0, p^0): forced 0
                continue
            var = (i, j, 1 if k else 0)
            ranges[var] = est - k
            entries[(i, j)] = (((var, 1),), 1 + k)
    if subs:
        raise ValueError(f"substitutions for unknown slots: {sorted(subs)}")

    conditions: list[CongruenceCondition] = []
    seen: set[tuple] = set()
    for j in range(1, m + 1):
        for i in range(1, j + 1):
            # back substitution in the leading i x i block against the
            # entrywise product of columns i and j: x[c] = (b(c, i) b(c, j)
            # - sum over d > c of b(c, d) x[d]) / p^(parts[c-1]), each
            # product by an entry a shift of monomials and p-exponents
            x: dict[int, dict] = {}
            for c in range(i, 0, -1):
                shift = parts[c - 1]
                acc: dict = {}
                bi, bj = entries[(c, i)], entries[(c, j)]
                if bi is not None and bj is not None:
                    acc[(_mono_mul(bi[0], bj[0]), bi[1] + bj[1] - shift)] = 1
                for d in range(c + 1, i + 1):
                    term = entries[(c, d)]
                    if term is None or not x[d]:
                        continue
                    mono, k = term
                    k -= shift
                    for (m2, k2), coeff in x[d].items():
                        _accumulate(acc, (_mono_mul(m2, mono), k2 + k), -coeff)
                x[c] = acc
            for c in range(1, i + 1):
                if not x[c]:
                    continue
                r = -min(k for _, k in x[c])
                if r <= 0:
                    continue
                # clear the denominator: multiply by p^r
                numerator = {(mono, k + r): coeff for (mono, k), coeff in x[c].items()}
                key = (frozenset(numerator.items()), r)
                if key in seen:
                    continue
                seen.add(key)
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

    A scan that can try at most _INTERPRETED_VALUES values (the sum over
    the scanned variables of the product of the periods up to it) is run
    by a recursive function over the plan of this system and p.  A larger
    one is a nested-loop counter generated for them: a condition's
    coefficients in its last variable are computed outside that
    variable's loop, so the innermost loops only evaluate one polynomial
    in one variable per condition.  Each function of the counter is
    compiled once per shape (its loops, their period steps and the
    factors of each check's terms) in a bounded cache, and run with the
    widths, periods, moduli and coefficients of this system and p.

    Both tiers charge every node, and run each period once: where a
    variable is read only mod a power of p below its width, the first
    period is scanned and the rest of the width charged and counted in
    bulk, so the count, the nodes and any overrun are those of the full
    scan.
    node_budget bounds the nodes: the values of every scanned variable's
    box that the full scan would try, including those charged in bulk.
    The empty diagonal's system, with no variable and no condition,
    counts 1, as count_by_diagonal(()) does.
    """
    require_instance("count_solutions", "system", system, ClosureSystem)
    require_prime(p)
    budget = _Budget(f"count_solutions(alpha={system.alpha}, p={p})", node_budget)
    return _count_solutions(system, p, budget)


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


def _count_solutions(system: ClosureSystem, p: int, budget: _Budget) -> int:
    """count_solutions spending from the caller's budget.  On an overrun
    the partial count is the solutions found so far."""
    plan = _plan(system, p)
    if plan is None:
        return 0
    budget.count = 0
    if not plan.box:
        budget.count = 1
        return plan.free_factor

    def overrun(nodes: int, count: int):
        raise ResourceLimitError(budget.context, nodes, budget.limit, count)

    try:
        if _value_bound(plan) <= _INTERPRETED_VALUES:
            xs = [0] * len(plan.box)
            budget.nodes, budget.count = _count_plan(
                plan, 0, xs, budget.nodes, 0, budget.limit, overrun)
        else:
            budget.nodes, budget.count = _run_compiled(plan, budget, overrun)
    except ResourceLimitError as err:
        budget.nodes, budget.count = err.nodes, err.partial_count
        raise err.with_partial(err.partial_count * plan.free_factor) from None
    return budget.count * plan.free_factor


def _run_compiled(plan: _Plan, budget: _Budget, overrun) -> tuple[int, int]:
    """(nodes, count) of plan's generated counter, run from budget.nodes."""
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
        return namespace["count0"](budget.nodes, 0, budget.limit)
    finally:
        namespace.clear()


# The most values a plan's scan may try (_value_bound) for _count_plan to
# count it; larger plans are compiled.  Per solve of the benchmark's
# congruence workload (seeds 2 and 3, two-core host, Python 3.11), the
# interpreted count took 0.09 ms on plans of at most 64 values against
# 0.76 ms to compile and run the counter (0.11 ms with its code cached),
# 1.5 ms against 2.8 ms (0.6 ms) on plans of 1,025-4,096 values, and
# 3.8 ms against 1.9 ms (0.8 ms) on plans of 16,385-65,536.  The median
# solve there tries 54 values.  Fresh-process rounds of that workload
# (seeds 2-4, 24 rounds per bound) took 0.90, 0.90, 0.89 and 0.95 times
# as long as with every plan compiled at bounds 1024, 4096, 16384 and
# 65536 (medians of the paired ratios): the best value is broad.  At 4096
# a round compiles 26 shapes instead of 131.
_INTERPRETED_VALUES = 4096


def _value_bound(plan: _Plan) -> int:
    """The most values a scan of plan tries while its period batches fit
    the budget: sum over d of periods[0] * ... * periods[d]."""
    total, prefixes = 0, 1
    for period in plan.periods:
        prefixes *= period
        total += prefixes
    return total


def _count_plan(plan: _Plan, d: int, xs: list, nodes: int, count: int,
                limit: int, overrun) -> tuple[int, int]:
    """The loops over x<d>, x<d+1>, ... of plan, interpreted, with x0 ..
    x<d-1> in xs: the updated (nodes, count), under the node rules of the
    generated counter (_counter_source).  A value of a loop that is not
    the last costs one node before its tests; at x<d> == period the
    period's nodes and count are repeated for the rest of the width when
    they fit in the budget.  The last loop charges the values the budget
    allows at once and tries one period when its whole width fits."""
    width, period, checks = plan.box[d], plan.periods[d], plan.checks[d]
    repeats = width // period - 1
    if d == len(plan.box) - 1:
        tried = min(limit - nodes, width)
        nodes += tried
        start = count
        for x in range(period if tried == width else tried):
            xs[d] = x
            count += _passes(checks, xs)
        if tried < width:
            overrun(nodes + 1, count)
        return nodes, count + (count - start) * repeats
    start_nodes, start = nodes, count
    for x in range(width):
        if x == period and (nodes - start_nodes) * repeats <= limit - nodes:
            return (nodes + (nodes - start_nodes) * repeats,
                    count + (count - start) * repeats)
        nodes += 1
        if nodes > limit:
            overrun(nodes, count)
        xs[d] = x
        if _passes(checks, xs):
            nodes, count = _count_plan(plan, d + 1, xs, nodes, count, limit, overrun)
    return nodes, count


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


def _plan(system: ClosureSystem, p: int) -> _Plan | None:
    """The scan of system at p, or None when a condition reduces to a
    nonzero constant, which no value solves."""
    rmax: dict[Var, int] = {}
    for cond in system.conditions:
        for mono, _ in cond.numerator:
            for v, _ in mono:
                rmax[v] = max(rmax.get(v, 0), cond.modulus_exponent)
    order = sorted(rmax, key=lambda v: (v[1], v[0], v[2]))
    idx = {v: i for i, v in enumerate(order)}

    free_exponent = sum(system.variable_ranges.values())
    box: list[int] = []
    for v in order:
        scan = min(system.variable_ranges[v], rmax[v])
        box.append(p**scan)
        free_exponent -= scan

    # each condition at this prime: its modulus and its terms, with the
    # coefficients reduced mod that modulus, filed under its last variable.
    # A term c*x*... mod p^r reads x only mod p^r / p^v_p(c), so values of
    # x that far apart pass the same tests: x's period is the largest such
    # step over the terms containing it, 1 if none does, capped at its box
    periods = [1] * len(order)
    checks: list[list[tuple[int, tuple]]] = [[] for _ in order]
    for cond in system.conditions:
        mod = p**cond.modulus_exponent
        coeffs: dict[tuple, int] = {}
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
    return _Plan(
        tuple(box),
        tuple(min(q, width) for q, width in zip(periods, box)),
        tuple(map(tuple, checks)),
        p**free_exponent,
    )


# Each generated function is compiled on its own, and the parser's memory
# grows with the text it reads, so one function holds at most this many
# loops, condition tests and period steps (one per loop whose period is
# below its width) and calls the next for the deeper loops; one loop with
# more tests than that makes a function of its own.  On the benchmark's
# congruence workload splitting took 0.3 MiB off the peak RSS, at no
# measurable cost in time.  With the literals as parameters, the largest
# compile there allocates about 215 KiB (tracemalloc), and 8 does not
# lower it.  10 also keeps the nesting far below CPython's limit of 20
# statically nested blocks.
_FUNCTION_SIZE = 10


def _functions(plan: _Plan) -> list[tuple[tuple, tuple[int, ...]]]:
    """The plan cut into the functions of its counter, each as (shape,
    literals): the shape decides the function's text, and the literals
    are the values that the text names L0, L1, ...

    A shape is (start, last, depths): the function runs the loops over
    x<start>, x<start+1>, ..., and last says whether its loops are the
    innermost.  depths holds, for each of its loops, whether the period is
    below the width, and the conditions tested there, each as the factors
    of its nonzero reduced terms.  The literals are, loop by loop: the
    width; the period and repeat count where the period is below the
    width; then for each condition its modulus and its coefficients.
    _counter_source names them in the same order.
    """
    functions = []
    start, size, depths, literals = 0, 0, [], []
    for d, (width, period, checks) in enumerate(zip(plan.box, plan.periods, plan.checks)):
        stepped = period < width
        cost = 1 + len(checks) + stepped
        if depths and size + cost > _FUNCTION_SIZE:
            functions.append(((start, False, tuple(depths)), tuple(literals)))
            start, size, depths, literals = d, 0, [], []
        size += cost
        literals.append(width)
        if stepped:
            literals += (period, width // period - 1)
        for mod, terms in checks:
            literals.append(mod)
            literals += (coeff for coeff, _ in terms)
        shaped = tuple(tuple(factors for _, factors in terms) for _, terms in checks)
        depths.append((stepped, shaped))
    functions.append(((start, True, tuple(depths)), tuple(literals)))
    return functions


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
# compiled 196-216.  With the small plans interpreted, the round runs 38
# functions of 26 shapes.  An entry holds about 1.75 KiB of
# code and 1.25 KiB of shape key (tracemalloc), so a full cache about
# 0.75 MiB; the round's peak RSS rose by about 0.12 MiB (0.6 %).
_FUNCTION_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_FUNCTION_CACHE_SIZE)
def _compiled_function(shape: tuple) -> CodeType:
    """The code of count<start> for this shape.  Neither the literals nor
    the budget are in the text, so every prime and every budget that give
    one shape share one compile."""
    module = compile(_counter_source(shape), "<counter>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _counter_source(shape: tuple) -> str:
    """Source of one function of the nested-loop counter.

    count<s>(x0, ..., x<s-1>, nodes, count, limit, L0, L1, ...) runs the
    loops over x<s>, x<s+1>, ... and returns the updated (nodes, count),
    calling overrun once nodes would pass limit; count0 is the whole
    count, and a function that is not the last calls the next for the
    deeper loops.  L0, L1, ... are the literals: they take their values
    as defaults, which the callers leave in place.  A condition whose
    last variable is x<d> is tested in the loop over x<d> by Horner's rule
    in x<d>; its coefficients of x<d>^k are computed as soon as the outer
    variables they use are assigned.  Every value tried costs one node.
    The text holds only the integer 1 and fixed names.

    Values of x<d> a period q apart have the same tests and subtrees.
    Where q is below the width w, the loop runs 0..q-1 as usual.  At
    x<d> == q, if the nodes that period spent, times w/q - 1, fit in what
    the budget has left, it charges them and adds as many times the
    period's count at once; otherwise it goes on one value at a time.
    Either way the nodes, count and any overrun are those of the full scan.
    """
    start, last, depths = shape
    stop = start + len(depths)
    # the literals' names, taken in the order _functions lists them
    params: list[str] = []

    def literal() -> str:
        params.append(f"L{len(params)}")
        return params[-1]

    width, period, repeats = {}, {}, {}
    tests: dict[int, list[str]] = {}
    # (depth whose loop body computes it, assignment)
    hoists: list[tuple[int, str]] = []
    for d, (stepped, checks) in enumerate(depths, start):
        width[d] = literal()
        if stepped:
            period[d], repeats[d] = literal(), literal()
        tests[d] = []
        for terms in checks:
            mod = literal()
            by_power: dict[int, list] = {}
            for factors in terms:
                coeff = literal()
                rest = [vi for vi in factors if vi != d]
                by_power.setdefault(len(factors) - len(rest), []).append((coeff, rest))
            coeffs: list[str | None] = []
            for k in range(max(by_power, default=-1) + 1):
                parts = by_power.get(k, [])
                const = " + ".join(c for c, rest in parts if not rest)
                body = ["*".join([c, *(f"x{vi}" for vi in rest)]) for c, rest in parts if rest]
                if not body:
                    coeffs.append(const or None)
                    continue
                if const:
                    body.append(const)
                name = f"c{len(hoists)}"
                place = max(vi for _, rest in parts for vi in rest)
                hoists.append((place, f"{name} = ({' + '.join(body)}) % {mod}"))
                coeffs.append(name)
            horner = _horner(coeffs, f"x{d}")
            if horner is not None:
                tests[d].append(f"({horner}) % {mod}")

    outer = [f"x{i}" for i in range(start)]
    lines = [f"def count{start}({', '.join(outer + ['nodes', 'count', 'limit'] + params)}):"]
    pad = "    "
    # an assignment whose variables are all outer ones comes first
    lines += [pad + line for place, line in hoists if place < start]
    for d in range(start, stop - last):
        lines += _loop(d, width[d], period.get(d), repeats.get(d), tests[d], pad)
        pad += "    "
        lines += [pad + line for place, line in hoists if place == d]
    if not last:
        inner = ", ".join([f"x{i}" for i in range(stop)] + ["nodes", "count", "limit"])
        lines.append(f"{pad}nodes, count = count{stop}({inner})")
    else:
        # the last loop nests nothing, so it spends one node per value
        # tried: it tries as many as the budget has left, and if that is
        # short of its width the next value is the overrun.  When the
        # whole width fits, one period is tried and its count multiplied.
        d = stop - 1
        lines.append(f"{pad}width = limit - nodes")
        lines.append(f"{pad}if width > {width[d]}:")
        lines.append(f"{pad}    width = {width[d]}")
        lines.append(f"{pad}nodes += width")
        values = "width"
        if d in period:
            lines.append(f"{pad}k{d} = count")
            values = f"width if width < {width[d]} else {period[d]}"
        lines.append(f"{pad}for x{d} in range({values}):")
        lines += _tests(d, tests[d], pad + "    ")
        lines.append(f"{pad}    count += 1")
        lines.append(f"{pad}if width < {width[d]}:")
        lines.append(f"{pad}    overrun(nodes + 1, count)")
        if d in period:
            lines.append(f"{pad}count += (count - k{d}) * {repeats[d]}")
    lines.append("    return nodes, count")
    return "".join(f"{line}\n" for line in lines)


def _loop(d: int, width: str, period: str | None, repeats: str | None,
          tests: list[str], pad: str) -> list[str]:
    """The loop over x<d>, each value tried one node checked against the
    limit, and the tests inside it.  With a period below the width, the
    first period's nodes and count, taken from n<d> and k<d>, are repeated
    at once when they fit in the budget."""
    inner = pad + "    "
    lines = []
    if period is not None:
        lines.append(f"{pad}n{d}, k{d} = nodes, count")
    lines.append(f"{pad}for x{d} in range({width}):")
    if period is not None:
        lines += [
            f"{inner}if x{d} == {period} and (nodes - n{d}) * {repeats} <= limit - nodes:",
            f"{inner}    nodes, count = nodes + (nodes - n{d}) * {repeats},"
            f" count + (count - k{d}) * {repeats}",
            f"{inner}    break",
        ]
    lines.append(f"{inner}nodes += 1")
    lines.append(f"{inner}if nodes > limit:")
    lines.append(f"{inner}    overrun(nodes, count)")
    return lines + _tests(d, tests, inner)


def _tests(d: int, tests: list[str], pad: str) -> list[str]:
    """The tests of x<d>'s conditions, each skipping the value it fails."""
    lines = []
    for test in tests:
        lines.append(f"{pad}if {test}:")
        lines.append(f"{pad}    continue")
    return lines


def _horner(coeffs: list[str | None], x: str) -> str | None:
    """coeffs[0] + x*(coeffs[1] + x*(...)), skipping the zero (None)
    coefficients; None when all are zero."""
    expr = None
    for c in reversed(coeffs):
        if expr is not None:
            expr = f"{x}*({expr})"
            if c is not None:
                expr = f"{c} + {expr}"
        else:
            expr = c
    return expr
