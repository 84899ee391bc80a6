"""Symbolic row reduction of the closure systems.

For a diagonal composition alpha, the candidate irreducible matrix has
entries p*a_ij with a_ij ranging over [0, p^(e_i - 1)).  Row-reducing the
augmented system [A | v_i o v_j] over coefficients m*p^k (k possibly
negative during the reduction) turns each non-integral entry of the
solution vector into one congruence condition

    numerator(a_..) == 0  (mod p^r)

with r minimal.  The prime stays symbolic, so one extraction serves every
p; solutions are then counted by exhaustion at a concrete prime.  That
count is g_alpha(p): counting.count_by_diagonal is extract_conditions
followed by count_solutions, and the HNF scan in counting is the oracle
it is checked against.

The exhaustion runs as Python generated for one system at one prime: one
nested `for` loop per scanned variable, each condition tested in the loop
of its last variable by Horner's rule, with its coefficients in that
variable computed (and reduced mod p^r) as soon as the outer variables
they use are assigned.  The text is compiled, run once and dropped.  A
node is one value tried for one variable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .limits import ResourceLimitError, _Budget, require_prime
from .partitions import Composition

# a variable is (row, col, ticks): the HNF entry slot plus the number of
# rescaling substitutions applied to it
Var = tuple[int, int, int]


def var_name(v: Var) -> str:
    i, j, ticks = v
    return f"a{i}{j}" + "'" * ticks


def _laurent_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class SymPoly:
    """Multivariate polynomial in the entry variables, coefficients integer
    Laurent polynomials in p: {monomial: {p_exponent: int}}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms or {}

    @classmethod
    def const(cls, m: int, k: int = 0) -> "SymPoly":
        if m == 0:
            return cls()
        return cls({(): {k: m}})

    @classmethod
    def variable(cls, v: Var) -> "SymPoly":
        return cls({((v, 1),): {0: 1}})

    def __add__(self, other: "SymPoly") -> "SymPoly":
        out = dict(self.terms)
        for mono, lau in other.terms.items():
            merged = _laurent_add(out.get(mono, {}), lau)
            if merged:
                out[mono] = merged
            else:
                out.pop(mono, None)
        return SymPoly(out)

    def __neg__(self) -> "SymPoly":
        return SymPoly(
            {m: {k: -v for k, v in lau.items()} for m, lau in self.terms.items()}
        )

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + (-other)

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        out: dict = {}
        for m1, l1 in self.terms.items():
            for m2, l2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                lau: dict = {}
                for k1, c1 in l1.items():
                    for k2, c2 in l2.items():
                        lau[k1 + k2] = lau.get(k1 + k2, 0) + c1 * c2
                lau = {k: v for k, v in lau.items() if v}
                if lau:
                    merged = _laurent_add(out.get(mono, {}), lau)
                    if merged:
                        out[mono] = merged
                    else:
                        out.pop(mono, None)
        return SymPoly(out)

    def p_shift(self, delta: int) -> "SymPoly":
        """Multiply by p^delta (delta may be negative)."""
        if delta == 0 or not self.terms:
            return self
        return SymPoly(
            {m: {k + delta: v for k, v in lau.items()} for m, lau in self.terms.items()}
        )

    def min_p_exponent(self) -> int | None:
        """Smallest p-exponent appearing in any coefficient; None when zero."""
        if not self.terms:
            return None
        return min(k for lau in self.terms.values() for k in lau)

    def variables(self) -> set[Var]:
        return {v for mono in self.terms for v, _ in mono}

    def evaluate_int(self, p: int, assignment: dict[Var, int]) -> int:
        """Value at a concrete prime and integer assignment; all p-exponents
        must be nonnegative."""
        total = 0
        for mono, lau in self.terms.items():
            coeff = 0
            for k, c in lau.items():
                if k < 0:
                    raise ValueError("evaluate_int on a Laurent term with k < 0")
                coeff += c * p**k
            prod = coeff
            for v, d in mono:
                prod *= assignment[v] ** d
            total += prod
        return total

    def text(self) -> str:
        """Canonical rendering: monomials sorted by variable name, integer
        coefficients written as polynomials in p, signs folded into the
        joining operators."""
        if not self.terms:
            return "0"
        rendered = []
        for mono, lau in self.terms.items():
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

    def __repr__(self) -> str:
        return f"SymPoly<{self.text()}>"


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


@dataclass(frozen=True)
class CongruenceCondition:
    """numerator == 0 (mod p^modulus_exponent)."""

    numerator: SymPoly
    modulus_exponent: int

    def text(self) -> str:
        return f"{self.numerator.text()} ≡ 0 mod p^{self.modulus_exponent}"


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
    parts = Composition(alpha).parts
    subs = dict(substitutions or {})
    m = len(parts)

    ranges: dict[Var, int] = {}
    entries: dict[tuple[int, int], SymPoly] = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            est = parts[i - 1] - 1
            if est <= 0:
                entries[(i, j)] = SymPoly.const(0)  # range [0, p^0): forced 0
                continue
            k = subs.pop((i, j), 0)
            if k < 0 or k > est:
                raise ValueError(f"substitution p^{k} out of range for slot ({i},{j})")
            var = (i, j, 1 if k else 0)
            if est - k <= 0:
                entries[(i, j)] = SymPoly.const(0)
                continue
            ranges[var] = est - k
            entries[(i, j)] = SymPoly.variable(var).p_shift(1 + k)
    if subs:
        raise ValueError(f"substitutions for unknown slots: {sorted(subs)}")

    def b(i: int, j: int) -> SymPoly:
        if i == j:
            return SymPoly.const(1, parts[i - 1])
        return entries[(i, j)]

    conditions: list[CongruenceCondition] = []
    seen: set[tuple] = set()
    for j in range(1, m + 1):
        for i in range(1, j + 1):
            w = [b(c, i) * b(c, j) for c in range(1, i + 1)]
            x: list[SymPoly | None] = [None] * (i + 1)
            for c in range(i, 0, -1):
                acc = w[c - 1]
                for d in range(c + 1, i + 1):
                    acc = acc - b(c, d) * x[d]
                x[c] = acc.p_shift(-parts[c - 1])
            for c in range(1, i + 1):
                mink = x[c].min_p_exponent()
                if mink is None or mink >= 0:
                    continue
                r = -mink
                numerator = x[c].p_shift(r)
                key = (numerator.text(), r)
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
    polynomial in one variable per condition.  node_budget bounds the
    nodes, the values tried over all variables.
    """
    require_prime(p)
    budget = _Budget(f"count_solutions(alpha={system.alpha}, p={p})", node_budget)
    return _count_solutions(system, p, budget)


def _count_solutions(system: ClosureSystem, p: int, budget: _Budget) -> int:
    """count_solutions spending from the caller's budget.  On an overrun
    the partial count is the solutions found so far."""
    rmax: dict[Var, int] = {}
    for cond in system.conditions:
        for v in cond.numerator.variables():
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
    # coefficients reduced mod that modulus, filed under its last variable
    checks: list[list[tuple[int, list[tuple[int, tuple]]]]] = [[] for _ in order]
    for cond in system.conditions:
        mod = p**cond.modulus_exponent
        terms = []
        last = -1
        for mono, lau in cond.numerator.terms.items():
            factors = tuple((idx[v], d) for v, d in mono)
            for vi, _ in factors:
                last = max(last, vi)
            coeff = sum(c * p**k for k, c in lau.items()) % mod
            if coeff:
                terms.append((coeff, factors))
        if last >= 0:
            checks[last].append((mod, terms))
        elif terms:  # a constant condition that fails
            return 0

    budget.count = 0
    if not order:
        budget.count = 1
        return free_factor
    # the counter needs nodes <= limit on entry, which fails only for a
    # negative budget; there the first value tried is the overrun
    if budget.nodes > budget.limit:
        budget.spend()

    def overrun(nodes: int, count: int):
        raise ResourceLimitError(budget.context, nodes, budget.limit, count)

    namespace = {"__builtins__": {}, "range": range, "overrun": overrun}
    for source in _counter_sources(box, checks, budget.limit):
        exec(compile(source, "<counter>", "exec"), namespace)
    try:
        budget.nodes, budget.count = namespace["count0"](budget.nodes, 0)
    except ResourceLimitError as err:
        budget.nodes, budget.count = err.nodes, err.partial_count
        raise err.with_partial(err.partial_count * free_factor) from None
    return budget.count * free_factor


# Each generated function is compiled on its own, and the parser's memory
# grows with the text it reads, so one function holds at most this many
# loops plus condition tests and calls the next for the deeper loops (on
# the benchmark's congruence workload this took 0.3 MiB off the peak RSS,
# at no measurable cost in time).  It also keeps the nesting far below
# CPython's limit of 20 statically nested blocks.
_FUNCTION_SIZE = 12


def _counter_sources(box: list[int], checks: list, limit: int) -> list[str]:
    """Source of the nested-loop counter for one system at one prime, one
    function per text.

    count<s>(x0, ..., x<s-1>, nodes, count) runs the loops over x<s>,
    x<s+1>, ... and returns the updated (nodes, count); count0 is the
    whole count.  A condition whose last variable is x<d> is tested in the
    loop over x<d> by Horner's rule in x<d>; its coefficients of x<d>^k
    are computed as soon as the outer variables they use are assigned.
    Every value tried costs one node.  The text holds only integer
    literals and fixed names.
    """
    nvars = len(box)
    starts, size = [0], 0  # the first depth of each function
    function_of = []
    for d in range(nvars):
        if d > starts[-1] and size + 1 + len(checks[d]) > _FUNCTION_SIZE:
            starts.append(d)
            size = 0
        size += 1 + len(checks[d])
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
                k = sum(deg for vi, deg in factors if vi == d)
                rest = [(vi, deg) for vi, deg in factors if vi != d]
                by_power.setdefault(k, []).append((coeff, rest))
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
                    place = max(vi for _, rest in parts for vi, _ in rest)
                    hoists.append((place, d, f"{names[key]} = {expr}"))
                coeffs.append(names[key])
            horner = _horner(coeffs, f"x{d}")
            if horner is not None:
                tests[d].append(f"({horner}) % {int(mod)}")

    sources = []
    for start, stop in zip(starts, starts[1:] + [nvars]):
        outer = [f"x{i}" for i in range(start)]
        lines = [f"def count{start}({', '.join(outer + ['nodes', 'count'])}):"]
        # an assignment whose variables are all outer ones comes first
        here = [(max(place, start - 1), line) for place, use, line in hoists
                if start <= use < stop]
        pad = "    "
        lines += [pad + line for place, line in here if place == start - 1]
        for d in range(start, min(stop, nvars - 1)):
            lines += _loop(d, str(int(box[d])), tests[d], pad, limit)
            pad += "    "
            lines += [pad + line for place, line in here if place == d]
        if stop < nvars:
            inner = ", ".join([f"x{i}" for i in range(stop)] + ["nodes", "count"])
            lines.append(f"{pad}nodes, count = count{stop}({inner})")
        else:
            # the last loop nests nothing, so it spends one node per value
            # tried: it tries as many as the budget has left, and if that
            # is short of its width the next value is the overrun
            d, width = nvars - 1, int(box[nvars - 1])
            lines.append(f"{pad}width = {int(limit)} - nodes")
            lines.append(f"{pad}if width > {width}:")
            lines.append(f"{pad}    width = {width}")
            lines.append(f"{pad}nodes += width")
            lines += _loop(d, "width", tests[d], pad, None)
            lines.append(f"{pad}    count += 1")
            lines.append(f"{pad}if width < {width}:")
            lines.append(f"{pad}    overrun(nodes + 1, count)")
        lines.append("    return nodes, count")
        sources.append("\n".join(lines) + "\n")
    return sources


def _loop(d: int, width: str, tests: list[str], pad: str, limit: int | None) -> list[str]:
    """The header of the loop over x<d> and the tests inside it; each
    value tried is one node, checked against the limit unless it is None."""
    inner = pad + "    "
    lines = [f"{pad}for x{d} in range({width}):"]
    if limit is not None:
        lines.append(f"{inner}nodes += 1")
        lines.append(f"{inner}if nodes > {int(limit)}:")
        lines.append(f"{inner}    overrun(nodes, count)")
    for test in tests:
        lines.append(f"{inner}if {test}:")
        lines.append(f"{inner}    continue")
    return lines


def _monomial(coeff: int, factors: list[tuple[int, int]]) -> str:
    names = [f"x{vi}" for vi, deg in factors for _ in range(deg)]
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
