"""Exact counts of subrings of Z^n at a concrete prime.

Production counts solve rather than scan.  g_alpha(p), the number of
irreducible subring matrices with diagonal alpha, is the number of
solutions at p of alpha's closure congruences (closure.extract_conditions
and closure.count_solutions).  g_n(p^e) sums g_alpha over the
compositions of e, and f_n(p^e) comes from the recurrence over
irreducible components (Liu, "Counting subrings of Z^n of index k",
JCTA 2007):

    f_n(p^e) = sum_i sum_j binom(n-1, j-1) f_(n-j)(p^(e-i)) g_j(p^i).

The Hermite-normal-form scan is the independent oracle (scan_by_diagonal,
scan_subrings).  It walks the candidates column by column and tests the
closure pairs (i, j) the moment column j completes, using only the
leading i x i block, so dead branches are cut as early as possible.  The
(1,...,1)-in-span condition forces the last diagonal entry to be 1 and,
once the interior columns are fixed, determines the last column uniquely.
That column is neither scanned nor tested, because it is always closed:
if 1 = (1,...,1) is in the span L and every product c_i o c_j of the
columns c_0..c_(n-2) is in L, then L is closed.  Row n-1 of A x = 1
gives x_(n-1) = 1, so c_(n-1) = 1 - sum_(j<n-1) x_j c_j; then
c_i o c_(n-1) = c_i - sum x_j c_i o c_j is in L, and so, by that case,
is c_(n-1) o c_(n-1) = c_(n-1) - sum x_j c_j o c_(n-1).  So each closed
interior counts one subring matrix.  With pruned=False it scans the full
box instead, last column included, and tests every condition at the end.

A node budget covers the whole public call that takes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .closure import (
    _at_prime,
    _count,
    _mono_mul,
    _skeleton,
    _Skeleton,
    extract_conditions,
)
from .codegen import _compiled_function
from .hnf import _column_closed, solve_upper_triangular
from .limits import (
    ResourceLimitError,
    _Budget,
    require_at_least,
    require_flag,
    require_prime,
    require_sequence,
)
from .partitions import bounded_compositions, composition, compositions
from .polyp import PolyP, _gaussian_binomial, lagrange_coefficients


def _scan_interior(rows, n, col_values, budget):
    """Fill columns 1..n-2 (0-based) left to right, cutting a branch as soon
    as a completed column fails its closure pairs.  Every survivor counts
    one accepted matrix."""

    def fill(j):
        if j == n - 1:
            budget.spend()
            budget.count += 1
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
    last column is all ones; otherwise the pruned scan leaves the last
    column unfilled, as it is closed whenever the interior is (the module
    docstring).
    """
    n = len(diag)
    rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    step = p if irreducible else 1
    col_values = [
        [range(0, diag[i], step) for i in range(j)] for j in range(n)
    ]

    if irreducible:
        # ones column is fixed; closure involving it holds automatically
        for i in range(n - 1):
            rows[i][n - 1] = 1

    budget.count = 0
    if not pruned:
        return _count_unpruned(rows, diag, n, col_values, budget, irreducible)

    _scan_interior(rows, n, col_values, budget)
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


def scan_by_diagonal(
    alpha, p: int, node_budget: int | None = None, pruned: bool = True
) -> int:
    """Oracle for g_alpha(p): scan the irreducible HNF matrices with
    diagonal alpha.  Uncached.  The empty diagonal () counts 1, the one
    matrix [1] of g_1(p^0), the recurrence's j = 1 term."""
    parts = composition(alpha)
    require_prime(p)
    require_flag("scan_by_diagonal", pruned=pruned)
    budget = _Budget(f"scan_by_diagonal(alpha={parts}, p={p})", node_budget)
    if not parts:
        return 1
    diag = [p**t for t in parts] + [1]
    return _count_with_diag(p, diag, budget, pruned, irreducible=True)


def scan_subrings(
    n: int, e: int, p: int, node_budget: int | None = None, pruned: bool = True
) -> int:
    """Oracle for f_n(p^e): scan every HNF subring matrix of index p^e.
    Uncached."""
    require_at_least("scan_subrings", 1, n=n)
    require_at_least("scan_subrings", 0, e=e)
    require_prime(p)
    require_flag("scan_subrings", pruned=pruned)
    budget = _Budget(f"scan_subrings(n={n}, e={e}, p={p})", node_budget)
    if n == 1:
        return 1 if e == 0 else 0
    total = 0
    # last diagonal exponent is 0, forced by the identity condition; the
    # others run over the weak compositions of e in lexicographic order
    for weak in bounded_compositions(e, n - 1, e):
        diag = [p**t for t in weak] + [1]
        try:
            total += _count_with_diag(p, diag, budget, pruned, irreducible=False)
        except ResourceLimitError as err:
            raise err.with_partial(total + err.partial_count) from None
    return total


def clear_caches() -> None:
    """Empty the cache of compiled congruence counter functions, that of
    monomial products and that of Gaussian binomials.  None of them
    changes an output; the next call recompiles what it needs."""
    _compiled_function.cache_clear()
    _mono_mul.cache_clear()
    _gaussian_binomial.cache_clear()


class _Call:
    """The node budget and tables of one public call.  f and g keep the
    counts the recurrence reuses (each g_alpha(p) is solved once, for its
    g entry), and skeletons the prime-independent part of each diagonal's
    closure solve (its congruences and their scan), so a call at several
    primes extracts and plans each once.  Nothing outlives the call, so
    what it counts and spends depends only on its arguments."""

    __slots__ = ("budget", "f", "g", "skeletons")

    def __init__(self, context: str, node_budget: int | None):
        self.budget = _Budget(context, node_budget)
        self.f: dict[tuple[int, int, int], int] = {}
        self.g: dict[tuple[int, int, int], int] = {}
        self.skeletons: dict[tuple[int, ...], _Skeleton] = {}


def _g_alpha(parts: tuple[int, ...], p: int, call: _Call) -> int:
    if parts not in call.skeletons:
        call.skeletons[parts] = _skeleton(extract_conditions(parts))
    return _count(_at_prime(call.skeletons[parts], p), call.budget)


def _g_n(n: int, e: int, p: int, call: _Call) -> int:
    if e < n - 1:
        return 0
    key = (n, e, p)
    if key not in call.g:
        total = 0
        for alpha in compositions(n, e):
            try:
                total += _g_alpha(alpha, p, call)
            except ResourceLimitError as err:
                raise err.with_partial(total + err.partial_count) from None
        call.g[key] = total
    return call.g[key]


def _f_n(n: int, e: int, p: int, call: _Call) -> int:
    """The recurrence.  Its j = 1 term is f_(n-1)(p^e), as g_1(p^i) = [i = 0];
    for j >= 2, g_j(p^i) = 0 when i < j - 1.  g_j(p^i) is computed only
    when its cofactor f_(n-j)(p^(e-i)) is not zero."""
    if n <= 1:
        return 1 if e == 0 else 0
    key = (n, e, p)
    if key in call.f:
        return call.f[key]
    # weight: what the partial count of the running inner call is worth
    total, weight = 0, 1
    try:
        total = _f_n(n - 1, e, p, call)
        for j in range(2, n + 1):
            for i in range(j - 1, e + 1):
                weight = 0
                rest = _f_n(n - j, e - i, p, call)
                if rest:
                    weight = comb(n - 1, j - 1) * rest
                    total += weight * _g_n(j, i, p, call)
    except ResourceLimitError as err:
        raise err.with_partial(total + weight * err.partial_count) from None
    call.f[key] = total
    return total


def count_subrings(n: int, e: int, p: int, node_budget: int | None = None) -> int:
    """f_n(p^e): subrings of Z^n of index p^e, by the recurrence over the
    irreducible counts."""
    require_at_least("count_subrings", 1, n=n)
    require_at_least("count_subrings", 0, e=e)
    require_prime(p)
    return _f_n(n, e, p, _Call(f"count_subrings(n={n}, e={e}, p={p})", node_budget))


def recurrence_f(n: int, e: int, p: int, node_budget: int | None = None) -> int:
    """f_n(p^e) by the recurrence: count_subrings under the recurrence's
    name."""
    return count_subrings(n, e, p, node_budget)


def count_by_diagonal(alpha, p: int, node_budget: int | None = None) -> int:
    """g_alpha(p): irreducible subring matrices with diagonal alpha, as
    the solutions of alpha's closure congruences at p.  The empty diagonal
    () counts 1, as scan_by_diagonal does."""
    parts = composition(alpha)
    require_prime(p)
    call = _Call(f"count_by_diagonal(alpha={parts}, p={p})", node_budget)
    return _g_alpha(parts, p, call)


def count_irreducible(n: int, e: int, p: int, node_budget: int | None = None) -> int:
    """g_n(p^e): irreducible subrings, summed over diagonal compositions."""
    require_at_least("count_irreducible", 2, n=n)
    require_at_least("count_irreducible", 0, e=e)
    require_prime(p)
    return _g_n(n, e, p, _Call(f"count_irreducible(n={n}, e={e}, p={p})", node_budget))


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
    a held-out disagreement).  The primes must be distinct.  node_budget
    covers all the primes together; an overrun reports the partial count
    of the prime it stopped in.
    """
    primes = require_sequence("interpolate_count", "primes", primes)
    for i, q in enumerate(primes):
        require_prime(q, f"primes[{i}]")
        # a repeat is a fit point met twice, or a held-out prime that the
        # fit passes through by construction
        if q in primes[:i]:
            raise ValueError(f"primes must be distinct, got {q} twice in {primes}")
    require_at_least("interpolate_count", 0, degree_cap=degree_cap)
    if len(primes) < degree_cap + 2:
        raise ValueError(
            f"need at least degree_cap + 2 = {degree_cap + 2} primes, got {len(primes)}"
        )
    require_flag("interpolate_count", irreducible=irreducible)
    require_at_least("interpolate_count", 2 if irreducible else 1, n=n)
    require_at_least("interpolate_count", 0, e=e)
    # one budget and one set of tables for every prime: the counts are
    # keyed by p, and the primes share each diagonal's closure system
    call = _Call(f"interpolate_count(n={n}, e={e}, primes={primes})", node_budget)
    counter = _g_n if irreducible else _f_n
    counts = tuple(counter(n, e, q, call) for q in primes)
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
