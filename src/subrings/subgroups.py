"""Subgroup counting in finite abelian p-groups and the sandwich bridge
from subgroups to subrings.

The closed-form side is the classical product formula over conjugate
partitions, each a plain tuple of ints (see partitions); the oracle side
enumerates HNF bases of sublattices of Z^(n-1) containing p^t Z^(n-1),
one diagonal at a time, drawn from partitions.bounded_compositions.  A
subgroup G with Z + m^2 Z^n <= G <= Z + m Z^n is automatically a
subring, which the audit checks matrix by matrix.  Each G is m L + Z(1,...,1) + m^2 Z^n for such
an L with m = p^t, and its HNF is written down from L's basis B in closed
form: [[m B, 1], [0, 1]].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Iterator

from .limits import ResourceLimitError, _Budget, require_integers, require_prime
from .hnf import HNFMatrix, hnf_from_generators, identity_in_span, is_closed
from .partitions import bounded_compositions, conjugate, partition, partitions_of
from .polyp import ONE, PolyP, gaussian_binomial


def _require_exponent(caller: str, t: int) -> None:
    """ValueError naming t unless the group's exponent t is >= 0."""
    if t < 0:
        raise ValueError(f"{caller} requires t >= 0, got t={t}")


def stehling_count(lam, nu) -> PolyP:
    """Number of subgroups of type nu in an abelian p-group of type lam,
    as the product over conjugate-partition columns:
    prod_j p^(nu'_(j+1) (lam'_j - nu'_j)) [lam'_j - nu'_(j+1), nu'_j - nu'_(j+1)]_p.
    nu' is read zero-padded to one more column than lam'."""
    lam, nu = partition(lam), partition(nu)
    if len(nu) > len(lam) or any(b > a for a, b in zip(lam, nu)):
        raise ValueError(f"{nu!r} is not contained in {lam!r}")
    lamc = conjugate(lam)
    nuc = conjugate(nu)
    nuc += (0,) * (len(lamc) + 1 - len(nuc))
    result = ONE
    for j, a in enumerate(lamc):
        b, c = nuc[j], nuc[j + 1]
        result = result * PolyP.monomial(c * (a - b))
        result = result * gaussian_binomial(a - c, b - c)
    return result


def count_subgroups_of_order(n: int, t: int, k: int) -> PolyP:
    """Subgroups of order p^k in (Z/p^t Z)^(n-1), summed over admissible
    types (parts <= t, length <= n-1).  At t = 0 the group is trivial,
    of the empty type, with its one subgroup."""
    require_integers("count_subgroups_of_order", n=n, t=t, k=k)
    if n < 1:
        raise ValueError("count_subgroups_of_order requires n >= 1")
    _require_exponent("count_subgroups_of_order", t)
    if not 0 <= k <= t * (n - 1):
        raise ValueError(f"order exponent {k} outside [0, {t * (n - 1)}]")
    lam = (t,) * (n - 1) if t else ()
    total = PolyP()
    for nu in partitions_of(k, max_part=t, max_length=n - 1):
        total = total + stehling_count(lam, nu)
    return total


def _walk_sublattices(p: int, t: int, diag, budget: _Budget, visit) -> None:
    """Call visit(rows) on the HNF basis rows of every sublattice L of Z^m
    with p^t Z^m <= L and diagonal p^diag[0], ..., p^diag[m-1].

    Output-sensitive: instead of scanning entry boxes and filtering,
    column j is built from the containment solve of p^t e_j.  With
    x_j = p^(t - f_j), row i of that solve forces
    a_ij * x_j == -S (mod p^(f_i)), whose solutions form an arithmetic
    progression that is enumerated directly.  One node is spent per entry
    chosen and one per column completed.  rows is reused: visit must copy
    what it keeps.

    With visit=None the lattices are only counted, into budget.count.
    Then the last entry of the last column, a_0(m-1), is not enumerated:
    each of its g values completes one lattice at one node, so the walk
    spends and counts all g at once (_Budget.spend_leaves), with the same
    nodes and the same partial count on an overrun.  Row 1 of the last
    column, a_1(m-1), is counted in bulk too when m >= 3: along its
    progression x_1 moves by -lam/g per step, so row 0's sum is linear in
    the step index k, and the q values that pass row 0's gcd test are the
    solutions of one linear congruence, counted at once.  The batch costs
    g + q g0 nodes and completes q g0 lattices (_Budget.spend_batch); when
    it does not fit in the budget the values are walked one at a time, so
    an overrun still reports the exact nodes and partial count.
    """
    m = len(diag)
    d = [p**f for f in diag]
    lams = [p ** (t - f) for f in diag]
    rows = [[d[i] if i == j else 0 for j in range(m)] for i in range(m)]
    last = m - 1 if visit is None else -1  # rows 0 and 1 of this column are counted in bulk

    def column(j):
        if j == m:
            if visit is None:  # m <= 1: no last column with a row 0 above its pivot
                budget.count += 1
            else:
                visit(rows)
            return
        # x solves the leading block of A x = p^t e_j as column j is chosen
        x = [0] * (j + 1)
        x[j] = lams[j]
        entry(j, j - 1, x)

    def entry(j, i, x):
        budget.spend()
        if i < 0:
            column(j + 1)
            return
        row = rows[i]
        s = sum(map(mul, row[i + 1:j], x[i + 1:j])) if i + 1 < j else 0
        lam, di = x[j], d[i]
        g = lam if lam < di else di  # gcd of two powers of p
        if s % g:
            return
        if i == 0 and j == last:
            budget.spend_leaves(g)
            return
        step = di // g
        a0 = (-(s // g) * pow(lam // g, -1, step)) % step if step > 1 else 0
        if i == 1 and j == last:
            # x_1 of a = a0 + k step is x_1(a0) - k lam/g, so row 0's sum is
            # s0 - k c with c = a_01 lam/g, and its gcd test s0 == k c
            # (mod g0) holds for no k or for one k in every g0/h, with
            # h = gcd(c, g0).  All are powers of p, and g0/h divides g:
            # either g = lam >= g0, or g = d_1 < lam and lam/g divides c,
            # so g0/h <= g0 g/lam <= g.  So g h/g0 values pass, and each
            # completes g0 lattices at g0 nodes after its own node.
            row0 = rows[0]
            x[1] = -(s + a0 * lam) // di
            s0 = sum(map(mul, row0[1:j], x[1:j]))
            g0 = lam if lam < d[0] else d[0]
            h = gcd(row0[1] * (lam // g), g0)
            lattices = 0 if s0 % h else g * h
            if budget.spend_batch(g + lattices, lattices):
                return
        for a in range(a0, di, step):
            row[j] = a
            x[i] = -(s + a * lam) // di
            entry(j, i - 1, x)
        row[j] = 0

    column(0)


def iter_sublattices_containing(
    m: int, p: int, t: int, budget: _Budget | None = None,
) -> Iterator[tuple[tuple[tuple[int, ...], ...], int]]:
    """HNF bases of sublattices L of Z^m with p^t Z^m <= L, yielding
    (rows, index_exponent), one diagonal at a time.

    This stays a generator function, so its arguments are checked at the
    first item, not at the call: the benchmark's spans
    (perfbench/spans.py) count the lattices it yields only for a
    generator function."""
    require_integers("iter_sublattices_containing", m=m, t=t)
    _require_exponent("iter_sublattices_containing", t)
    require_prime(p)
    if budget is None:
        budget = _Budget(f"iter_sublattices_containing(m={m}, p={p}, t={t})", None)
    for diag in itertools.product(range(t + 1), repeat=m):
        found = []
        _walk_sublattices(p, t, diag, budget, lambda rows: found.append(tuple(map(tuple, rows))))
        idx = sum(diag)
        for rows in found:
            yield rows, idx


def brute_force_subgroups(
    n: int, t: int, k: int, p: int, node_budget: int | None = None
) -> int:
    """Oracle: subgroups of order p^k in (Z/p^t Z)^(n-1), counted through
    the bijection with sublattices of Z^(n-1) of index p^(t(n-1)-k)
    containing p^t Z^(n-1).  An overrun's partial count is the number of
    sublattices counted before it."""
    require_integers("brute_force_subgroups", n=n, t=t, k=k)
    _require_exponent("brute_force_subgroups", t)
    require_prime(p)
    budget = _Budget(f"brute_force_subgroups(n={n}, t={t}, k={k}, p={p})", node_budget)
    # the walk yields exactly the answer's number of lattices; this also
    # refuses an order exponent k outside [0, t(n-1)]
    size = int(count_subgroups_of_order(n, t, k)(p))
    if size > 10**6:
        raise ResourceLimitError(
            f"size cap of brute_force_subgroups(n={n}, t={t}, k={k}, p={p})", size, 10**6, 0
        )
    m = n - 1
    for diag in bounded_compositions(t * m - k, m, t):
        _walk_sublattices(p, t, diag, budget, None)
    return budget.count


def max_degree_order_count(n: int, t: int, k: int) -> int:
    """Degree in p of count_subgroups_of_order(n, t, k): the conjugate type
    is balanced, with i = t*ceil(k/t) - k parts floor(k/t) and the rest
    ceil(k/t), giving k(n-1) - sum of squared parts."""
    require_integers("max_degree_order_count", n=n, t=t, k=k)
    _require_exponent("max_degree_order_count", t)
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
    require_integers("bound_h_exponent", n=n, e=e)
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


def _sandwich_matrix(p: int, t: int, rows, exponent: dict[int, int]) -> HNFMatrix:
    """HNF of G = Z(1,...,1) + m (L x 0) + m^2 Z^n, m = p^t, for L with HNF
    basis rows, p^t Z^(n-1) <= L <= Z^(n-1).  exponent maps each p^f,
    f <= t, to f.

    The columns m B_j and (1,...,1) span G, since m^2 Z^(n-1) <= m L and
    m^2 e_n is then m^2 (1,...,1) minus a vector of m L.  Every entry is
    already reduced: m a_ij < m a_ii, and 1 < m a_ii as m >= 2.  G's
    diagonal exponents are t + f_i, where a_ii = p^(f_i), then 0.  p is
    not checked for primality here: the callers check it once.
    """
    m = p**t
    top = tuple(tuple([m * a for a in row] + [1]) for row in rows)
    exps = tuple(t + exponent[row[i]] for i, row in enumerate(rows)) + (0,)
    return HNFMatrix(len(exps), p, exps, top + ((0,) * len(rows) + (1,),))


def _sandwich_hnf_agreement(n: int, m: int, node_budget: int | None = None) -> tuple[int, int]:
    """Oracle for _sandwich_matrix: (lattices G the audit at (n, m) walks,
    those whose closed-form HNF equals generic elimination of G's defining
    generators (1,...,1), m times each column of L, and m^2 e_j)."""
    p, t = _prime_power(m)
    exponent = {p**f: f for f in range(t + 1)}  # L's pivots are p^f, f <= t
    budget = _Budget(f"_sandwich_hnf_agreement(n={n}, m={m})", node_budget)
    walked = agreeing = 0
    for rows, _ in iter_sublattices_containing(n - 1, p, t, budget):
        gens = [[1] * n]
        gens += [[m * row[j] for row in rows] + [0] for j in range(n - 1)]
        gens += [[m * m if i == j else 0 for i in range(n)] for j in range(n)]
        walked += 1
        agreeing += _sandwich_matrix(p, t, rows, exponent) == hnf_from_generators(p, gens)
    return walked, agreeing


def sandwich_subring_audit(n: int, m: int, node_budget: int | None = None) -> SandwichAudit:
    """Enumerate every subgroup G of Z^n with Z + m^2 Z^n <= G <= Z + m Z^n,
    write its HNF matrix in closed form (_sandwich_matrix), and check the
    subring conditions.

    m must be a prime power p^t.  G at index m^(n-1) * p^kappa corresponds
    to a subgroup of index p^kappa in (Z/mZ)^(n-1).  The lattices are
    walked once, under one budget, and the count at each index is compared
    with the product formula's count of order p^kappa, equal to it by
    subgroup self-duality.  The size cap compares the number of lattices
    the walk will produce, the sum of those counts, with 10^8.  An
    overrun's partial count is the number of lattices audited before it.

    p is checked for primality per audit, when m is split into p^t
    (_prime_power) and when the walk starts, not per matrix: each
    HNFMatrix is built from its known diagonal exponents t + f_i and 0,
    and its constructor still validates every entry.  Every matrix ends
    in the identity column, so is_closed and identity_in_span solve
    nothing for that column.
    """
    require_integers("sandwich_subring_audit", n=n, m=m)
    if n < 1:
        raise ValueError("sandwich_subring_audit requires n >= 1")
    p, t = _prime_power(m)
    budget = _Budget(f"sandwich_subring_audit(n={n}, m={m})", node_budget)
    exponent = {p**f: f for f in range(t + 1)}  # L's pivots are p^f, f <= t
    mm = n - 1
    # index-p^kappa subgroups are equinumerous with order-p^kappa ones
    oracle = [int(count_subgroups_of_order(n, t, kappa)(p)) for kappa in range(t * mm + 1)]
    size = sum(oracle)
    if size > 10**8:
        raise ResourceLimitError(
            f"size cap of sandwich_subring_audit(n={n}, m={m})", size, 10**8, 0
        )
    per_kappa_count: dict[int, int] = {}
    per_kappa_violations: dict[int, int] = {}
    for rows, idx_exp in iter_sublattices_containing(mm, p, t, budget):
        kappa = idx_exp  # index of L in Z^(n-1) = index of the subgroup image
        A = _sandwich_matrix(p, t, rows, exponent)
        # holds by construction once the walk's index matches its diagonal;
        # _sandwich_hnf_agreement is the closed form's real check
        expected_det = m ** (n - 1) * p**kappa
        if A.det != expected_det:
            raise AssertionError(
                f"sandwich lattice index {A.det} != expected {expected_det}"
            )
        ok = identity_in_span(A) and is_closed(A)
        per_kappa_count[kappa] = per_kappa_count.get(kappa, 0) + 1
        per_kappa_violations[kappa] = per_kappa_violations.get(kappa, 0) + (0 if ok else 1)
        budget.count += 1
    out = []
    for kappa in range(0, t * mm + 1):
        out.append(
            SandwichRow(
                order_exponent=kappa,
                index_exponent=t * mm + kappa,
                sandwich_count=per_kappa_count.get(kappa, 0),
                subgroup_count=oracle[kappa],
                violations=per_kappa_violations.get(kappa, 0),
            )
        )
    return SandwichAudit(n, m, tuple(out))


def _prime_power(m: int) -> tuple[int, int]:
    """(p, t) with m = p^t, p prime and t >= 1.  As p >= 2, t <= log2(m),
    and for each such t the one candidate p is the integer t-th root of
    m, so the cost is polylogarithmic in m, not linear."""
    # imported on first use, like limits.require_prime's isprime
    from mpmath.libmp import isprime

    if m < 2:
        raise ValueError("modulus must be >= 2")
    for t in range(1, m.bit_length()):
        p = _integer_root(m, t)
        if p**t == m and isprime(p):
            return p, t
    raise ValueError(f"modulus {m} is not a prime power")


def _integer_root(m: int, t: int) -> int:
    """The largest r with r^t <= m, for m >= 1: Newton's method on
    integers, started above the root, stops when it no longer descends."""
    r = 1 << -(-m.bit_length() // t)
    while True:
        s = ((t - 1) * r + m // r ** (t - 1)) // t
        if s >= r:
            return r
        r = s
