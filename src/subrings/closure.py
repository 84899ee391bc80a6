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

The exhaustion runs as Python generated for one system at one prime: one
nested `for` loop per scanned variable, each condition tested in the loop
of its last variable by Horner's rule, with its coefficients in that
variable computed (and reduced mod p^r) as soon as the outer variables
they use are assigned.  The compiled code depends only on the box widths
and the per-depth checks (moduli and reduced coefficients), which are its
key in a small per-process LRU cache; the node budget is an argument, so
diagonals of the same shape and every call of a budget sweep share one
compile.  A node is one value tried for one variable.

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

from .limits import ResourceLimitError, _Budget, require_prime
from .partitions import composition

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


def _mono_mul(m1, m2):
    exp = dict(m1)
    for v, d in m2:
        exp[v] = exp.get(v, 0) + d
    return tuple(sorted(exp.items()))


def _laurent_text(lau: dict) -> str:
    parts = []
    for k in sorted(lau, reverse=True):
        c = lau[k]
        if k == 0:
            parts.append(f"{c}")
        else:
            base = "p" if k == 1 else f"p^{k}"
            if c == 1:
                parts.append(base)
            elif c == -1:
                parts.append(f"-{base}")
            else:
                parts.append(f"{c}*{base}")
    txt = " + ".join(parts).replace("+ -", "- ")
    return txt


def _poly_text(terms: dict) -> str:
    """Canonical rendering of a polynomial given term by term: monomials
    sorted by variable name, integer coefficients written as polynomials
    in p, signs folded into the joining operators."""
    if not terms:
        return "0"
    laurents: dict = {}
    for (mono, k), c in terms.items():
        laurents.setdefault(mono, {})[k] = c
    rendered = []
    for mono, lau in laurents.items():
        mono_txt = "*".join(
            var_name(v) + (f"^{d}" if d > 1 else "")
            for v, d in sorted(mono, key=lambda t: var_name(t[0]))
        )
        rendered.append((mono_txt, lau))
    rendered.sort(key=lambda t: t[0])
    pieces = []
    for mono_txt, lau in rendered:
        negative = False
        if len(lau) == 1:
            ((k, c),) = lau.items()
            if c < 0:
                negative = True
                lau = {k: -c}
        body = _laurent_text(lau)
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
    forms arise).
    Conditions with denominator exponent 0 are omitted.
    """
    parts = composition(alpha)
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
            if est <= 0:
                entries[(i, j)] = None  # range [0, p^0): forced 0
                continue
            k = subs.pop((i, j), 0)
            if k < 0 or k > est:
                raise ValueError(f"substitution p^{k} out of range for slot ({i},{j})")
            var = (i, j, 1 if k else 0)
            if est - k <= 0:
                entries[(i, j)] = None
                continue
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

    The scan is a nested-loop counter generated for this system and p: a
    condition's coefficients in its last variable are computed outside
    that variable's loop, so the innermost loops only evaluate one
    polynomial in one variable per condition.  The compiled counter is
    kept in a bounded cache keyed by the box widths and the per-depth
    checks, and reused by any system and prime with the same key.  Every
    node is charged; each period runs once: where a variable is read only
    mod a power of p below its width, the first period is scanned and the
    rest of the width charged and counted in bulk, so the count, the
    nodes and any overrun are those of the full scan.  node_budget bounds
    the nodes, the values tried over all variables.
    """
    require_prime(p)
    budget = _Budget(f"count_solutions(alpha={system.alpha}, p={p})", node_budget)
    return _count_solutions(system, p, budget)


def _count_solutions(system: ClosureSystem, p: int, budget: _Budget) -> int:
    """count_solutions spending from the caller's budget.  On an overrun
    the partial count is the solutions found so far."""
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
    free_factor = p**free_exponent

    # each condition at this prime: its modulus and its terms, with the
    # coefficients reduced mod that modulus, filed under its last variable;
    # a term's factors list the index of each variable once per degree.
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
        elif terms:  # a constant condition that fails
            return 0
    periods = [min(q, width) for q, width in zip(periods, box)]

    budget.count = 0
    if not order:
        budget.count = 1
        return free_factor

    def overrun(nodes: int, count: int):
        raise ResourceLimitError(budget.context, nodes, budget.limit, count)

    # a fresh namespace per solve: overrun raises for this budget, and the
    # count<s> functions call each other through it.  Their globals are the
    # namespace itself, a reference cycle that the finally clause breaks,
    # so a solve leaves nothing for the cycle collector.
    namespace = {"__builtins__": {}, "range": range, "overrun": overrun}
    try:
        counter = _compiled_counter(tuple(box), tuple(periods), tuple(map(tuple, checks)))
        for code in counter:
            exec(code, namespace)
        budget.nodes, budget.count = namespace["count0"](budget.nodes, 0, budget.limit)
    except ResourceLimitError as err:
        budget.nodes, budget.count = err.nodes, err.partial_count
        raise err.with_partial(err.partial_count * free_factor) from None
    finally:
        namespace.clear()
    return budget.count * free_factor


# How many compiled counters one process keeps, least recently used
# dropped first.  A counter depends only on its box widths and checks (its
# periods follow from them), which recur across diagonals of the same shape
# and across the calls of a budget sweep.  On a round of the benchmark's
# congruence workload 256 solves need 146 distinct counters; 32 entries
# reuse 54-61 of them (seeds 1-5) and add about 0.15 MiB to the peak RSS,
# where 64 entries reuse 84-92 for about 0.3 MiB.
_COUNTER_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_COUNTER_CACHE_SIZE)
def _compiled_counter(box: tuple[int, ...], periods: tuple[int, ...], checks: tuple) -> tuple:
    """The counter for these box widths, periods and per-depth checks, one
    code object per generated function.  The periods follow from the
    checks and widths, so they add no distinct key.  The budget is an
    argument of the counter, not part of its text, so every budget shares
    one compile."""
    return tuple(
        compile(source, "<counter>", "exec")
        for source in _counter_sources(box, periods, checks)
    )


# Each generated function is compiled on its own, and the parser's memory
# grows with the text it reads, so one function holds at most this many
# loops, condition tests and period steps (one per loop whose period is
# below its width) and calls the next for the deeper loops.  On the
# benchmark's congruence workload splitting took 0.3 MiB off the peak RSS,
# at no measurable cost in time; with the period steps counted, 10 keeps
# the largest compile (about 170 KB traced by tracemalloc) below the
# 185 KB that 12 took before there were period steps, where 12 with them
# took 230 KB.  It also keeps the nesting far below CPython's limit of 20
# statically nested blocks.
_FUNCTION_SIZE = 10


def _counter_sources(box: tuple[int, ...], periods: tuple[int, ...], checks: tuple) -> list[str]:
    """Source of the nested-loop counter for one system at one prime, one
    function per text.

    count<s>(x0, ..., x<s-1>, nodes, count, limit) runs the loops over
    x<s>, x<s+1>, ... and returns the updated (nodes, count), calling
    overrun once nodes would pass limit; count0 is the whole count.  A
    condition whose last variable is x<d> is tested in the loop over x<d>
    by Horner's rule in x<d>; its coefficients of x<d>^k are computed as
    soon as the outer variables they use are assigned.  Every value tried
    costs one node.  The text holds only integer literals and fixed names.

    Values of x<d> a period q apart have the same tests and subtrees.
    Where q is below the width w, the loop runs 0..q-1 as usual.  At
    x<d> == q, if the nodes that period spent, times w/q - 1, fit in what
    the budget has left, it charges them and adds as many times the
    period's count at once; otherwise it goes on one value at a time.
    Either way the nodes, count and any overrun are those of the full scan.
    """
    nvars = len(box)
    starts, size = [0], 0  # the first depth of each function
    function_of = []
    for d in range(nvars):
        cost = 1 + len(checks[d]) + (periods[d] < box[d])
        if d > starts[-1] and size + cost > _FUNCTION_SIZE:
            starts.append(d)
            size = 0
        size += cost
        function_of.append(len(starts) - 1)

    tests: list[list[str]] = [[] for _ in range(nvars)]
    # (depth whose loop body computes it, depth using it, assignment)
    hoists: list[tuple[int, int, str]] = []
    # (hoisted expression, function) -> the name it is computed into
    names: dict[tuple[str, int], str] = {}
    for d in range(nvars):
        for mod, terms in checks[d]:
            by_power: dict[int, list] = {}
            for coeff, factors in terms:
                rest = [vi for vi in factors if vi != d]
                by_power.setdefault(len(factors) - len(rest), []).append((coeff, rest))
            coeffs: list[str | None] = []
            for k in range(max(by_power, default=-1) + 1):
                parts = by_power.get(k, [])
                const = sum(c for c, rest in parts if not rest) % mod
                body = [_monomial(c, rest) for c, rest in parts if rest]
                if not body:
                    coeffs.append(str(int(const)) if const else None)
                    continue
                if const:
                    body.append(str(int(const)))
                expr = f"({' + '.join(body)}) % {int(mod)}"
                key = (expr, function_of[d])
                if key not in names:
                    names[key] = f"c{len(names)}"
                    place = max(vi for _, rest in parts for vi in rest)
                    hoists.append((place, d, f"{names[key]} = {expr}"))
                coeffs.append(names[key])
            horner = _horner(coeffs, f"x{d}")
            if horner is not None:
                tests[d].append(f"({horner}) % {int(mod)}")

    sources = []
    for start, stop in zip(starts, starts[1:] + [nvars]):
        outer = [f"x{i}" for i in range(start)]
        lines = [f"def count{start}({', '.join(outer + ['nodes', 'count', 'limit'])}):"]
        # an assignment whose variables are all outer ones comes first
        here = [(max(place, start - 1), line) for place, use, line in hoists
                if start <= use < stop]
        pad = "    "
        lines += [pad + line for place, line in here if place == start - 1]
        for d in range(start, min(stop, nvars - 1)):
            lines += _loop(d, int(box[d]), int(periods[d]), tests[d], pad)
            pad += "    "
            lines += [pad + line for place, line in here if place == d]
        if stop < nvars:
            inner = ", ".join([f"x{i}" for i in range(stop)] + ["nodes", "count", "limit"])
            lines.append(f"{pad}nodes, count = count{stop}({inner})")
        else:
            # the last loop nests nothing, so it spends one node per value
            # tried: it tries as many as the budget has left, and if that
            # is short of its width the next value is the overrun.  When
            # the whole width fits, one period is tried and its count
            # multiplied.
            d, width, period = nvars - 1, int(box[nvars - 1]), int(periods[nvars - 1])
            lines.append(f"{pad}width = limit - nodes")
            lines.append(f"{pad}if width > {width}:")
            lines.append(f"{pad}    width = {width}")
            lines.append(f"{pad}nodes += width")
            values = "width"
            if period < width:
                lines.append(f"{pad}k{d} = count")
                values = f"width if width < {width} else {period}"
            lines.append(f"{pad}for x{d} in range({values}):")
            lines += _tests(d, tests[d], pad + "    ")
            lines.append(f"{pad}    count += 1")
            lines.append(f"{pad}if width < {width}:")
            lines.append(f"{pad}    overrun(nodes + 1, count)")
            if period < width:
                lines.append(f"{pad}count += (count - k{d}) * {width // period - 1}")
        lines.append("    return nodes, count")
        sources.append("\n".join(lines) + "\n")
    return sources


def _loop(d: int, width: int, period: int, tests: list[str], pad: str) -> list[str]:
    """The loop over x<d>, each value tried one node checked against the
    limit, and the tests inside it.  Below the width, the first period's
    nodes and count, taken from n<d> and k<d>, are repeated at once when
    they fit in the budget."""
    inner = pad + "    "
    lines = []
    if period < width:
        repeats = width // period - 1
        lines.append(f"{pad}n{d}, k{d} = nodes, count")
    lines.append(f"{pad}for x{d} in range({width}):")
    if period < width:
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


def _monomial(coeff: int, factors: list[int]) -> str:
    names = [f"x{vi}" for vi in factors]
    if coeff != 1 or not names:
        names.insert(0, str(int(coeff)))
    return "*".join(names)


def _horner(coeffs: list[str | None], x: str) -> str | None:
    """coeffs[0] + x*(coeffs[1] + x*(...)), skipping the zero (None)
    coefficients; None when all are zero."""
    expr = None
    for c in reversed(coeffs):
        if expr is not None:
            expr = x if expr == "1" else f"{x}*({expr})"
            if c is not None:
                expr = f"{c} + {expr}"
        else:
            expr = c
    return expr
