"""Exact enumeration of subring matrices at a concrete prime.

count_subrings walks Hermite-normal-form candidates column by column.
Closure pairs (i, j) are tested the moment column j completes, using only
the leading i x i block, so dead branches are cut as early as possible.
The (1,...,1)-in-span condition forces the last diagonal entry to be 1
and, once the interior columns are fixed, determines the last column
uniquely, so it is solved for rather than scanned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .hnf import _column_closed, solve_upper_triangular
from .partitions import Composition, compositions
from .polyp import PolyP, lagrange_coefficients

DEFAULT_NODE_BUDGET = 10**9


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration exceeds its node budget; carries the
    partial progress instead of silently truncating."""

    def __init__(self, context: str, nodes: int, budget: int, partial_count: int):
        super().__init__(
            f"node budget exceeded in {context}: {nodes} nodes > budget {budget} "
            f"(partial count {partial_count})"
        )
        self.context = context
        self.nodes = nodes
        self.budget = budget
        self.partial_count = partial_count


class _Budget:
    __slots__ = ("context", "limit", "nodes", "count")

    def __init__(self, context: str, limit: int | None):
        self.context = context
        self.limit = DEFAULT_NODE_BUDGET if limit is None else limit
        self.nodes = 0
        self.count = 0

    def spend(self, k: int = 1):
        self.nodes += k
        if self.nodes > self.limit:
            raise ResourceLimitError(self.context, self.nodes, self.limit, self.count)


def _derived_last_column(rows, diag, n):
    """The unique last column making (1,...,1) solvable, or None.

    Solving A x = (1,...,1) bottom-up: row n-1 forces a_(n-1,n-1) = 1;
    at row i the entry a_in is the unique representative mod p^(e_i)
    making the division exact.
    """
    if diag[n - 1] != 1:
        return None
    col = [0] * n
    x = [0] * n
    col[n - 1] = 1
    x[n - 1] = 1
    for i in range(n - 2, -1, -1):
        s = 1
        row = rows[i]
        for j in range(i + 1, n - 1):
            if x[j]:
                s -= row[j] * x[j]
        d = diag[i]
        a = s % d
        col[i] = a
        x[i] = (s - a) // d
    return col


def _scan_interior(rows, n, col_values, budget, on_complete):
    """Fill columns 1..n-2 (0-based) left to right, cutting a branch as soon
    as a completed column fails its closure pairs.  Every survivor counts
    on_complete() accepted matrices, or one when on_complete is None."""

    def fill(j):
        if j == n - 1:
            budget.spend()
            budget.count += 1 if on_complete is None else on_complete()
            return
        values = col_values[j]

        def entry(i):
            if i == j:
                budget.spend()
                if _column_closed(rows, j):
                    fill(j + 1)
                return
            for v in values[i]:
                rows[i][j] = v
                entry(i + 1)
            rows[i][j] = 0

        entry(0)

    fill(1)


def _count_with_diag(p, diag, budget, pruned, irreducible):
    """Count subring matrices with the given diagonal powers.

    diag lists the actual diagonal entries p^(e_i) (length n).  In the
    irreducible case off-diagonal entries run over multiples of p and the
    last column is all ones; otherwise the last column is derived from the
    identity solve.
    """
    n = len(diag)
    rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    step = p if irreducible else 1
    col_values = [
        [range(0, diag[i], step) for i in range(j)] for j in range(n)
    ]

    def finish_general():
        col = _derived_last_column(rows, diag, n)
        if col is None:
            return 0
        for i in range(n - 1):
            rows[i][n - 1] = col[i]
        ok = _column_closed(rows, n - 1)
        for i in range(n - 1):
            rows[i][n - 1] = 0
        return 1 if ok else 0

    if irreducible:
        # ones column is fixed; closure involving it holds automatically
        for i in range(n - 1):
            rows[i][n - 1] = 1

    if not pruned:
        return _count_unpruned(rows, diag, n, col_values, budget, irreducible)

    budget.count = 0
    _scan_interior(rows, n, col_values, budget, None if irreducible else finish_general)
    return budget.count


def _count_unpruned(rows, diag, n, col_values, budget, irreducible):
    """Oracle mode: scan the full interior box (and the full last column in
    the general case) and test every condition only at the very end."""
    interior = [(i, j) for j in range(1, n - 1) for i in range(j)]
    ranges = [col_values[j][i] for (i, j) in interior]
    last = [] if irreducible else [(i, n - 1) for i in range(n - 1)]
    last_ranges = [range(0, diag[i]) for (i, _) in last]
    total = 0
    for vals in itertools.product(*ranges):
        for (i, j), v in zip(interior, vals):
            rows[i][j] = v
        for lvals in itertools.product(*last_ranges):
            budget.spend()
            for (i, j), v in zip(last, lvals):
                rows[i][j] = v
            if not irreducible:
                if solve_upper_triangular(rows, [1] * n) is None:
                    continue
            if all(_column_closed(rows, j) for j in range(n)):
                total += 1
                budget.count = total
    return total


_F_CACHE: dict[tuple[int, int, int], int] = {}
_G_CACHE: dict[tuple[int, int, int], int] = {}
_GA_CACHE: dict[tuple[tuple[int, ...], int], int] = {}


def count_subrings(
    n: int, e: int, p: int, node_budget: int | None = None, pruned: bool = True
) -> int:
    """f_n(p^e): subrings of Z^n of index p^e, by exhaustive HNF enumeration."""
    if n < 1 or e < 0:
        raise ValueError("count_subrings requires n >= 1, e >= 0")
    key = (n, e, p)
    if pruned and node_budget is None and key in _F_CACHE:
        return _F_CACHE[key]
    if n == 1:
        return 1 if e == 0 else 0
    budget = _Budget(f"count_subrings(n={n}, e={e}, p={p})", node_budget)
    total = 0
    # last diagonal exponent is 0, forced by the identity condition; the
    # others run over the weak compositions of e in lexicographic order
    for shifted in compositions(n, e + n - 1):
        diag = [p ** (t - 1) for t in shifted] + [1]
        try:
            total += _count_with_diag(p, diag, budget, pruned, irreducible=False)
        except ResourceLimitError as err:
            raise ResourceLimitError(
                budget.context, err.nodes, err.budget, total + err.partial_count
            ) from None
    if pruned and node_budget is None:
        # plain dict insert: atomic under the GIL, idempotent values
        _F_CACHE.setdefault(key, total)
    return total


def count_by_diagonal(
    alpha, p: int, node_budget: int | None = None, pruned: bool = True
) -> int:
    """g_alpha(p): irreducible subring matrices with diagonal alpha."""
    parts = tuple(alpha.parts if isinstance(alpha, Composition) else alpha)
    if any(x < 1 for x in parts):
        raise ValueError("diagonal composition parts must be >= 1")
    if not parts:
        return 1
    key = (parts, p)
    if pruned and node_budget is None and key in _GA_CACHE:
        return _GA_CACHE[key]
    budget = _Budget(f"count_by_diagonal(alpha={parts}, p={p})", node_budget)
    diag = [p**t for t in parts] + [1]
    total = _count_with_diag(p, diag, budget, pruned, irreducible=True)
    if pruned and node_budget is None:
        _GA_CACHE.setdefault(key, total)
    return total


def count_irreducible(n: int, e: int, p: int, node_budget: int | None = None) -> int:
    """g_n(p^e): irreducible subrings, summed over diagonal compositions."""
    if n < 2:
        raise ValueError("count_irreducible requires n >= 2")
    if e < n - 1:
        return 0
    key = (n, e, p)
    if node_budget is None and key in _G_CACHE:
        return _G_CACHE[key]
    total = 0
    for alpha in compositions(n, e):
        try:
            total += count_by_diagonal(alpha, p, node_budget)
        except ResourceLimitError as err:
            raise ResourceLimitError(
                f"count_irreducible(n={n}, e={e}, p={p})",
                err.nodes, err.budget, total + err.partial_count,
            ) from None
    if node_budget is None:
        _G_CACHE.setdefault(key, total)
    return total


def _g(j: int, i: int, p: int) -> int:
    """g_j(p^i) in the recurrence: the rank-1 factor counts only at
    exponent 0, and g_j(p^0) = 0 for j >= 2."""
    if j == 1:
        return 1 if i == 0 else 0
    if i == 0:
        return 0
    return count_irreducible(j, i, p)


def recurrence_f(n: int, e: int, p: int) -> int:
    """f_n(p^e) by the double-sum recurrence over irreducible components:
    f_n(p^e) = sum_i sum_j binom(n-1, j-1) f_(n-j)(p^(e-i)) g_j(p^i)."""
    memo: dict[tuple[int, int], int] = {}

    def f(nn: int, ee: int) -> int:
        if nn <= 1:
            return 1 if ee == 0 else 0
        if (nn, ee) in memo:
            return memo[(nn, ee)]
        total = 0
        for i in range(ee + 1):
            for j in range(1, nn + 1):
                g = _g(j, i, p)
                if g:
                    total += comb(nn - 1, j - 1) * f(nn - j, ee - i) * g
        memo[(nn, ee)] = total
        return total

    return f(n, e)


@dataclass(frozen=True)
class InterpolationMismatch:
    """Structured report for a failed polynomiality fit."""

    reason: str
    primes: tuple[int, ...]
    counts: tuple[int, ...]
    degree_cap: int
    detail: str = ""


def interpolate_count(
    n: int,
    e: int,
    primes: Sequence[int],
    degree_cap: int,
    irreducible: bool = False,
    node_budget: int | None = None,
):
    """Fit the unique polynomial through (p, count) for all but the last
    prime and verify it at the held-out prime.

    Returns the PolyP on success, or an InterpolationMismatch describing
    which check failed (non-integer coefficients, degree above the cap, or
    a held-out disagreement).
    """
    primes = tuple(primes)
    if len(primes) < degree_cap + 2:
        raise ValueError(
            f"need at least degree_cap + 2 = {degree_cap + 2} primes, got {len(primes)}"
        )
    counter = count_irreducible if irreducible else count_subrings
    counts = tuple(counter(n, e, q, node_budget) for q in primes)
    fit_pts = list(zip(primes[:-1], counts[:-1]))
    coeffs = lagrange_coefficients(fit_pts)
    if any(c.denominator != 1 for c in coeffs):
        return InterpolationMismatch(
            "noninteger_coefficients", primes, counts, degree_cap,
            detail=str([str(c) for c in coeffs]),
        )
    poly = PolyP([int(c) for c in coeffs])
    if poly.degree > degree_cap:
        return InterpolationMismatch(
            "degree_exceeds_cap", primes, counts, degree_cap,
            detail=f"fitted degree {poly.degree}",
        )
    held_p, held_count = primes[-1], counts[-1]
    predicted = poly(held_p)
    if predicted != held_count:
        return InterpolationMismatch(
            "holdout_mismatch", primes, counts, degree_cap,
            detail=f"poly({held_p}) = {predicted} != {held_count}",
        )
    return poly
