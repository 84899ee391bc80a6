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

    def is_zero(self) -> bool:
        return not self.terms

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
    """numerator == 0 (mod p^modulus_exponent), from entry `row` of the
    solve for the column pair `source_pair` (1-based)."""

    numerator: SymPoly
    modulus_exponent: int
    source_pair: tuple[int, int]
    row: int

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
    parts = tuple(alpha.parts if isinstance(alpha, Composition) else alpha)
    if any(x < 1 for x in parts):
        raise ValueError("diagonal composition parts must be >= 1")
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
                conditions.append(CongruenceCondition(numerator, r, (i, j), c))
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

    # compile each condition once for this prime
    compiled: list[tuple[int, list[tuple[int, list[tuple[int, int]]]], int]] = []
    for cond in system.conditions:
        mod = p**cond.modulus_exponent
        terms = []
        last = -1
        for mono, lau in cond.numerator.terms.items():
            coeff = sum(c * p**k for k, c in lau.items())
            factors = [(idx[v], d) for v, d in mono]
            for vi, _ in factors:
                last = max(last, vi)
            terms.append((coeff, factors))
        compiled.append((last, terms, mod))

    # constant conditions (no variables at all)
    for last, terms, mod in compiled:
        if last == -1:
            value = sum(c for c, _ in terms)
            if value % mod:
                return 0
    by_depth: dict[int, list] = {}
    for last, terms, mod in compiled:
        if last >= 0:
            by_depth.setdefault(last, []).append((terms, mod))

    nvars = len(order)
    vals = [0] * nvars

    def scan(depth: int) -> None:
        if depth == nvars:
            budget.count += 1
            return
        checks = by_depth.get(depth, ())
        for v in range(box[depth]):
            budget.spend()
            vals[depth] = v
            ok = True
            for terms, mod in checks:
                s = 0
                for coeff, factors in terms:
                    t = coeff
                    for vi, d in factors:
                        t *= vals[vi] ** d
                    s += t
                if s % mod:
                    ok = False
                    break
            if ok:
                scan(depth + 1)

    budget.count = 0
    try:
        scan(0)
    except ResourceLimitError as err:
        raise err.with_partial(err.partial_count * free_factor) from None
    return budget.count * free_factor
