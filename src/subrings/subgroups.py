"""Subgroup counting in finite abelian p-groups and the sandwich bridge
from subgroups to subrings.

The closed-form side is the classical product formula over conjugate
partitions; the oracle side enumerates HNF bases of sublattices of
Z^(n-1) containing p^t Z^(n-1).  A subgroup G with
Z + m^2 Z^n <= G <= Z + m Z^n is automatically a subring, which the audit
checks matrix by matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .limits import ResourceLimitError, _Budget, require_prime
from .hnf import hnf_from_generators, identity_in_span, is_closed
from .partitions import Partition, partitions_of
from .polyp import ONE, PolyP, gaussian_binomial


def stehling_count(lam, nu) -> PolyP:
    """Number of subgroups of type nu in an abelian p-group of type lam,
    as the product over conjugate-partition columns:
    prod_j p^(nu'_(j+1) (lam'_j - nu'_j)) [lam'_j - nu'_(j+1), nu'_j - nu'_(j+1)]_p."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    nu = nu if isinstance(nu, Partition) else Partition(nu)
    if not lam.contains(nu):
        raise ValueError(f"{nu!r} is not contained in {lam!r}")
    lamc = lam.conjugate()
    nuc = nu.conjugate()
    result = ONE
    for j in range(1, len(lamc) + 1):
        a = nuc.part(j + 1) * (lamc.part(j) - nuc.part(j))
        result = result * PolyP.monomial(a)
        result = result * gaussian_binomial(
            lamc.part(j) - nuc.part(j + 1), nuc.part(j) - nuc.part(j + 1)
        )
    return result


def count_subgroups_of_order(n: int, t: int, k: int) -> PolyP:
    """Subgroups of order p^k in (Z/p^t Z)^(n-1), summed over admissible
    types (parts <= t, length <= n-1)."""
    if not 0 <= k <= t * (n - 1):
        raise ValueError(f"order exponent {k} outside [0, {t * (n - 1)}]")
    lam = Partition([t] * (n - 1))
    total = PolyP()
    for nu in partitions_of(k, max_part=t, max_length=n - 1):
        total = total + stehling_count(lam, nu)
    return total


def iter_sublattices_containing(
    m: int, p: int, t: int, index_exponent: int | None = None,
    budget: _Budget | None = None,
) -> Iterator[tuple[tuple[tuple[int, ...], ...], int]]:
    """HNF bases of sublattices L of Z^m with p^t Z^m <= L, yielding
    (rows, index_exponent).  Restricted to one index when requested.

    Output-sensitive: instead of scanning entry boxes and filtering,
    column j is built from the containment solve of p^t e_j.  With
    x_j = p^(t - f_j), row i of that solve forces
    a_ij * x_j == -S (mod p^(f_i)), whose solutions form an arithmetic
    progression that is enumerated directly.
    """
    exps = (
        range(0, min(t, index_exponent) + 1)
        if index_exponent is not None
        else range(0, t + 1)
    )
    for diag in itertools.product(exps, repeat=m):
        if index_exponent is not None and sum(diag) != index_exponent:
            continue
        d = [p**f for f in diag]
        rows = [[d[i] if i == j else 0 for j in range(m)] for i in range(m)]
        idx = sum(diag)

        def fill(j: int):
            if j == m:
                yield tuple(tuple(r) for r in rows)
                return
            # x solves the leading block of A x = p^t e_j as column j is chosen
            x = [0] * (j + 1)
            x[j] = p ** (t - diag[j])

            def choose(i: int):
                if budget is not None:
                    budget.spend()
                if i < 0:
                    yield from fill(j + 1)
                    return
                s = sum(rows[i][k] * x[k] for k in range(i + 1, j))
                lam, di = x[j], d[i]
                g = min(lam, di)  # gcd of two powers of p
                if s % g:
                    return
                step = di // g
                a0 = (-(s // g) * pow(lam // g, -1, step)) % step if step > 1 else 0
                for w in range(g):
                    a = a0 + step * w
                    rows[i][j] = a
                    x[i] = -(s + a * lam) // di
                    yield from choose(i - 1)
                rows[i][j] = 0

            yield from choose(j - 1)

        for rows_out in fill(0):
            yield rows_out, idx


def brute_force_subgroups(
    n: int, t: int, k: int, p: int, node_budget: int | None = None
) -> int:
    """Oracle: subgroups of order p^k in (Z/p^t Z)^(n-1), counted through
    the bijection with sublattices of Z^(n-1) of index p^(t(n-1)-k)
    containing p^t Z^(n-1)."""
    require_prime(p)
    m = n - 1
    box = p ** (t * m)
    if box > 10**6:
        raise ResourceLimitError(
            f"size cap of brute_force_subgroups(n={n}, t={t}, k={k}, p={p})", box, 10**6, 0
        )
    if not 0 <= k <= t * m:
        raise ValueError(f"order exponent {k} outside [0, {t * m}]")
    budget = _Budget(f"brute_force_subgroups(n={n}, t={t}, k={k}, p={p})", node_budget)
    want = t * m - k
    return sum(1 for _ in iter_sublattices_containing(m, p, t, want, budget))


def max_degree_order_count(n: int, t: int, k: int) -> int:
    """Degree in p of count_subgroups_of_order(n, t, k): the conjugate type
    is balanced, with i = t*ceil(k/t) - k parts floor(k/t) and the rest
    ceil(k/t), giving k(n-1) - sum of squared parts."""
    if not 0 <= k <= t * (n - 1):
        raise ValueError(f"order exponent {k} outside [0, {t * (n - 1)}]")
    if k == 0:
        return 0
    b, c = k // t, -(-k // t)
    i = t * c - k
    return k * (n - 1) - (i * b * b + (t - i) * c * c)


def bound_h_exponent(n: int, e: int, with_argmax: bool = False):
    """Subgroup-route lower-bound exponent: f_n(p^e) >= p^h with
    h = max over t in [ceil(e/2(n-1)), floor(e/(n-1))] of the balanced
    degree for order exponent k = e - t(n-1).  Never negative: the trivial
    bound f >= 1 is reported as 0."""
    if n < 2:
        raise ValueError("bound_h_exponent requires n >= 2")
    if e < n - 1:
        raise ValueError(f"bound_h_exponent needs e >= n-1, got e={e}")
    lo = -(-e // (2 * (n - 1)))
    hi = e // (n - 1)
    best, best_t = 0, None
    for t in range(lo, hi + 1):
        k = e - t * (n - 1)
        v = max_degree_order_count(n, t, k)
        if v > best:
            best, best_t = v, t
    return (best, best_t) if with_argmax else best


@dataclass(frozen=True)
class SandwichRow:
    order_exponent: int
    index_exponent: int
    sandwich_count: int
    subgroup_count: int
    violations: int

    @property
    def match(self) -> bool:
        return self.sandwich_count == self.subgroup_count


@dataclass(frozen=True)
class SandwichAudit:
    n: int
    m: int
    rows: tuple[SandwichRow, ...]

    @property
    def total_violations(self) -> int:
        return sum(r.violations for r in self.rows)

    @property
    def all_counts_match(self) -> bool:
        return all(r.match for r in self.rows)


def sandwich_subring_audit(n: int, m: int, node_budget: int | None = None) -> SandwichAudit:
    """Enumerate every subgroup G of Z^n with Z + m^2 Z^n <= G <= Z + m Z^n,
    convert it to an HNF matrix, and check the subring conditions.

    m must be a prime power p^t.  G at index m^(n-1) * p^kappa corresponds
    to a subgroup of index p^kappa in (Z/mZ)^(n-1); counts per index are
    compared against the order-count oracle via subgroup self-duality.
    """
    if n < 1:
        raise ValueError("sandwich_subring_audit requires n >= 1")
    p, t = _prime_power(m)
    mm = n - 1
    box = m ** (2 * mm)
    if box > 10**8:
        raise ResourceLimitError(
            f"size cap of sandwich_subring_audit(n={n}, m={m})", box, 10**8, 0
        )
    budget = _Budget(f"sandwich_subring_audit(n={n}, m={m})", node_budget)
    per_kappa_count: dict[int, int] = {}
    per_kappa_violations: dict[int, int] = {}
    for rows, idx_exp in iter_sublattices_containing(mm, p, t, None, budget):
        kappa = idx_exp  # index of L in Z^(n-1) = index of the subgroup image
        # G = Z*(1,...,1) + m * (L embedded in the first n-1 coordinates)
        gens = [[1] * n]
        for j in range(mm):
            gens.append([m * rows[i][j] if i < mm else 0 for i in range(n)])
        for j in range(n):
            vec = [0] * n
            vec[j] = m * m
            gens.append(vec)
        A = hnf_from_generators(p, gens)
        expected_det = m ** (n - 1) * p**kappa
        if A.det != expected_det:
            raise AssertionError(
                f"sandwich lattice index {A.det} != expected {expected_det}"
            )
        ok = identity_in_span(A) and is_closed(A)
        per_kappa_count[kappa] = per_kappa_count.get(kappa, 0) + 1
        per_kappa_violations[kappa] = per_kappa_violations.get(kappa, 0) + (0 if ok else 1)
    out = []
    for kappa in range(0, t * mm + 1):
        # index-p^kappa subgroups are equinumerous with order-p^kappa ones
        oracle = brute_force_subgroups(n, t, kappa, p, node_budget)
        out.append(
            SandwichRow(
                order_exponent=kappa,
                index_exponent=t * mm + kappa,
                sandwich_count=per_kappa_count.get(kappa, 0),
                subgroup_count=oracle,
                violations=per_kappa_violations.get(kappa, 0),
            )
        )
    return SandwichAudit(n, m, tuple(out))


def _prime_power(m: int) -> tuple[int, int]:
    if m < 2:
        raise ValueError("modulus must be >= 2")
    for p in range(2, m + 1):
        if m % p == 0:
            t = 0
            q = m
            while q % p == 0:
                q //= p
                t += 1
            if q != 1:
                raise ValueError(f"modulus {m} is not a prime power")
            return p, t
    raise ValueError(f"modulus {m} is not a prime power")
