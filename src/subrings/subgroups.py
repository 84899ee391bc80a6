"""Subgroup counting in finite abelian p-groups and the sandwich bridge
from subgroups to subrings.

The closed-form side is the classical product formula over conjugate
partitions, each a plain tuple of ints (see partitions); the oracle side
enumerates HNF bases of sublattices of Z^(n-1) containing p^t Z^(n-1),
one diagonal at a time, drawn from partitions.bounded_compositions.  A
subgroup G with Z + m^2 Z^n <= G <= Z + m Z^n is automatically a
subring, which the audit checks matrix by matrix.  Each G is
m L + Z(1,...,1) + m^2 Z^n for such an L with m = p^t, and its HNF,
[[m B, 1], [0, 1]] for L's basis B, is written column by column where
the walk completes each column of L, each column's HNF conditions and
closure checked once for the lattices that share the prefix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .limits import (
    ResourceLimitError, _Budget, is_prime, require_at_least, require_flag, require_index,
    require_prime,
)
from .hnf import HNFMatrix, _check_column, _column_closed, _ends_in_identity, hnf_from_generators
from .partitions import bounded_compositions, conjugate, partition, partitions_of
from .polyp import ONE, PolyP, gaussian_binomial


def _require_order(caller: str, n: int, t: int, k: int) -> None:
    """ValueError naming the argument unless (n, t, k) names the subgroups
    of order p^k in (Z/p^t Z)^(n-1): ints n >= 1, t >= 0 and
    0 <= k <= t(n-1)."""
    require_at_least(caller, 1, n=n)
    require_at_least(caller, 0, t=t, k=k)
    if k > t * (n - 1):
        raise ValueError(f"{caller} requires k <= t(n-1) = {t * (n - 1)}, got k={k}")


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
    _require_order("count_subgroups_of_order", n, t, k)
    lam = (t,) * (n - 1) if t else ()
    total = PolyP()
    for nu in partitions_of(k, max_part=t, max_length=n - 1):
        total = total + stehling_count(lam, nu)
    return total


def _walk_sublattices(p: int, t: int, diag, budget: _Budget, visit, column=None) -> None:
    """Call visit(rows) on the HNF basis rows of every sublattice L of Z^m
    with p^t Z^m <= L and diagonal p^diag[0], ..., p^diag[m-1].

    Output-sensitive: instead of scanning entry boxes and filtering,
    column j is built from the containment solve of p^t e_j.  With
    x_j = p^(t - f_j), row i of that solve forces
    a_ij * x_j == -S (mod p^(f_i)), whose solutions form an arithmetic
    progression that is enumerated directly.  In column j, x_j is fixed,
    so each row's gcd g = gcd(x_j, p^(f_i)), its step p^(f_i)/g and the
    inverse of x_j/g modulo the step depend only on the diagonal: they
    are computed once per call, not at every node.  One node is spent per
    entry chosen and one per column completed, in depth-first order.  An
    entry with one value (g = 1: lam_j = 1 or d_i = 1) and a completed
    column are taken in the while loop of the current call; the walk
    recurses only where an entry has several values.  A brute-force round
    of the benchmark's oracles workload makes 40,137 calls instead of
    93,783 over the same 303,121 nodes, and its four audits 14,042 instead
    of 19,806.  rows is reused: visit must copy what it keeps, and an
    entry is left as it was last set, not reset, when the walk backs out.

    With visit=None the lattices are only counted, into budget.count.
    Then the last entry of the last column, a_0(m-1), is not enumerated
    when its g values fit in the budget: each completes one lattice at one
    node, so the walk spends g nodes and counts g lattices at once
    (_Budget.spend_batch).  When they do not fit, the values are walked
    one at a time, with the same nodes and partial count.  Row 1 of the
    last column, a_1(m-1), is counted in bulk too when m >= 3: along its
    progression x_1 moves by -lam/g per step, so row 0's sum is linear in
    the step index k, and the q values that pass row 0's gcd test are the
    solutions of one linear congruence, counted at once.  The batch costs
    g + q g0 nodes and completes q g0 lattices (_Budget.spend_batch); when
    it does not fit in the budget the values are walked one at a time, so
    an overrun still reports the exact nodes and partial count.

    column(j, rows), when given, is called where column j of L is
    complete, at that column's node: for column 0 at the walk's first
    node, and for every later column in the while loop, so once for each
    prefix of columns 0..j the walk reaches, in depth-first order, and
    before visit sees any lattice with that prefix.  The sandwich audit
    writes and checks G's columns there (_sandwich_walk).  walk refers to
    itself through its cell; the finally clause breaks that cycle, so a
    walk leaves nothing for the cycle collector.
    """
    m = len(diag)
    d = [p**f for f in diag]
    lams = [p ** (t - f) for f in diag]
    # steps[j][i] = (g, step, inverse) of row i < j of column j; g is a
    # power of p, so the smaller of the two; the inverse modulo 1 is 0
    steps = [[] for _ in range(m)]
    for j, lam in enumerate(lams):
        for di in d[:j]:
            g = lam if lam < di else di
            steps[j].append((g, di // g, pow(lam // g, -1, di // g)))
    rows = [[d[i] if i == j else 0 for j in range(m)] for i in range(m)]
    last = m - 1 if visit is None else -1  # rows 0 and 1 of this column are counted in bulk
    spend = budget.spend

    def walk(j, i, x):
        # x solves the leading block of A x = p^t e_j as column j is chosen;
        # i < 0: column j is complete
        while True:
            spend()
            if i < 0:
                if column is not None:
                    column(j, rows)
                j += 1
                if j == m:
                    if visit is None:  # m == 1, or a_0(m-1) taken one value at a time
                        budget.count += 1
                    else:
                        visit(rows)
                    return
                x = [0] * (j + 1)
                x[j] = lams[j]
                i = j - 1
                continue
            row = rows[i]
            s = 0
            for k in range(i + 1, j):
                s += row[k] * x[k]
            g, step, inv = steps[j][i]
            if s % g:
                return
            if i == 0 and j == last and budget.spend_batch(g, g):
                return
            lam, di = x[j], d[i]
            a0 = (-(s // g) * inv) % step
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
                s0 = 0
                for k in range(1, j):
                    s0 += row0[k] * x[k]
                g0 = steps[j][0][0]
                h = gcd(row0[1] * (lam // g), g0)
                lattices = 0 if s0 % h else g * h
                if budget.spend_batch(g + lattices, lattices):
                    return
            if g == 1:  # one value: take it in this loop
                row[j] = a0
                x[i] = -(s + a0 * lam) // di
                i -= 1
                continue
            for a in range(a0, di, step):
                row[j] = a
                x[i] = -(s + a * lam) // di
                walk(j, i - 1, x)
            return

    try:
        if m:
            walk(0, -1, [lams[0]])
        # Z^0 is its own one sublattice, found at no node
        elif visit is None:
            budget.count += 1
        else:
            visit(rows)
    finally:
        walk = None


def iter_sublattices_containing(
    m: int, p: int, t: int
) -> Iterator[tuple[tuple[tuple[int, ...], ...], int]]:
    """HNF bases of sublattices L of Z^m with p^t Z^m <= L, yielding
    (rows, index_exponent), one diagonal at a time.

    This stays a generator function, so its arguments are checked at the
    first item, not at the call: the benchmark's spans
    (perfbench/spans.py) count the lattices it yields only for a
    generator function."""
    require_at_least("iter_sublattices_containing", 0, m=m, t=t)
    require_prime(p)
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
    _require_order("brute_force_subgroups", n, t, k)
    require_prime(p)
    budget = _Budget(f"brute_force_subgroups(n={n}, t={t}, k={k}, p={p})", node_budget)
    # the walk yields exactly the answer's number of lattices
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
    _require_order("max_degree_order_count", n, t, k)
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
    require_index("bound_h_exponent", n, e)
    require_flag("bound_h_exponent", with_argmax=with_argmax)
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


def _sandwich_walk(n: int, p: int, t: int, budget: _Budget, lattice) -> None:
    """Call lattice(rows, kappa, buf, exps, subring) for every
    G = Z(1,...,1) + m L + m^2 Z^n, m = p^t, with L running over the
    sublattices of Z^(n-1) containing m Z^(n-1), in the order of
    iter_sublattices_containing: rows is L's HNF basis, p^kappa its index,
    buf the rows of G's HNF and exps its diagonal exponents, and subring
    is True iff buf is closed under componentwise products of its columns
    and its last column is the identity (1,...,1), which puts the identity
    in the span.  rows, buf and exps are reused: the caller copies what it
    keeps.  A diagonal's lattices are added to budget.count once its walk
    is done, so an overrun's partial count is the number of lattices in
    the diagonals already finished.

    G's HNF is [[m B, 1], [0, 1]] for L's HNF basis B.  The columns m B_j
    and (1,...,1) span G, since m^2 Z^(n-1) <= m L and m^2 e_n is then
    m^2 (1,...,1) minus a vector of m L.  Every entry is already reduced:
    m a_ij < m a_ii, and 1 < m a_ii as m >= 2.

    One n x n buffer holds G's HNF, its last column fixed to (1,...,1).
    The walk (_walk_sublattices) calls column(c, rows) where it completes
    column c of L, once for each prefix of columns 0..c it reaches, and
    before any lattice with that prefix.  There m times L's column is
    written into the buffer and checked: the HNF check (hnf._check_column)
    of the pivot p^(t + f), where a_cc = p^f with 0 <= f <= t, and of
    every entry of the column, then ok[c+1] = ok[c] and _column_closed,
    which reads only the leading block.  Column c's check reads the pivots
    of the rows above it, which belong to columns already checked, and
    columns past c are not read, so every column of every visited matrix
    has passed it.  The identity column is checked once, against pivots
    m: every pivot written later is p^(t + f) >= m, so its entries 1 stay
    below them.  The pairs with the last column, the ring identity, hold
    and are not solved, as in is_closed.  Per lattice, the det
    p^sum(exps) is compared with m^(n-1) p^kappa by exponent, and the
    last column is read.  p is not checked for primality here: the
    caller checks it once.
    """
    m = p**t
    last = n - 1
    top = t * last  # m^(n-1) = p^top
    shifted = {p**f: t + f for f in range(t + 1)}  # L's pivots are p^f, f <= t
    buf = [[m if i == j else 0 for j in range(last)] + [1] for i in range(n)]
    exps = [t] * last + [0]
    for c in range(n):
        _check_column(buf, c, p, exps[c])
    ok = [True] * n  # ok[c]: the pairs of columns 0..c-1 of buf hold

    def column(c, rows):
        for i in range(c + 1):
            buf[i][c] = m * rows[i][c]
        pivot = rows[c][c]
        e = shifted.get(pivot)
        if e is None:
            raise ValueError(f"pivot {pivot} of column {c} of L is not p^f, 0 <= f <= {t}")
        exps[c] = e
        _check_column(buf, c, p, e)
        ok[c + 1] = ok[c] and _column_closed(buf, c)

    def visit(rows):
        nonlocal found
        # holds by construction, as G's diagonal exponents are t + f_i
        # and 0; _sandwich_hnf_agreement is the construction's real check.
        # The powers are built only for the message
        if sum(exps) != top + kappa:
            raise AssertionError(
                f"sandwich lattice index {p ** sum(exps)} != expected {m**last * p**kappa}"
            )
        found += 1
        lattice(rows, kappa, buf, exps, ok[last] and _ends_in_identity(buf))

    for diag in itertools.product(range(t + 1), repeat=last):
        kappa = sum(diag)  # kappa: index of L in Z^(n-1)
        found = 0
        _walk_sublattices(p, t, diag, budget, visit, column)
        budget.count += found


def _sandwich_hnf_agreement(n: int, m: int, node_budget: int | None = None) -> tuple[int, int]:
    """Oracle for _sandwich_walk: (lattices G compared at (n, m), those
    that agree).  The walk's lattices are compared in lockstep with the
    items of iter_sublattices_containing(n - 1, p, t), run without a
    budget.  A lattice agrees when its L and kappa are the generator's
    item at the same position, and its HNF, as the audit writes it and as
    a validated HNFMatrix, equals generic elimination of G's defining
    generators (1,...,1), m times each column of L, and m^2 e_j.  So a
    lattice the walk skips, adds or visits out of order disagrees; an item
    the generator yields past the walk's end counts as compared and
    disagreeing.  An overrun's partial count is the number of lattices
    compared before it, in the diagonals already finished."""
    require_at_least("_sandwich_hnf_agreement", 1, n=n)
    require_at_least("_sandwich_hnf_agreement", 2, m=m)
    p, t = _prime_power(m)
    budget = _Budget(f"_sandwich_hnf_agreement(n={n}, m={m})", node_budget)
    items = iter_sublattices_containing(n - 1, p, t)
    agreeing = 0

    def lattice(rows, kappa, buf, exps, _):
        nonlocal agreeing
        L = tuple(map(tuple, rows))
        A = HNFMatrix(n, p, tuple(exps), tuple(map(tuple, buf)))
        gens = [[1] * n]
        gens += [[m * row[j] for row in L] + [0] for j in range(n - 1)]
        gens += [[m * m if i == j else 0 for i in range(n)] for j in range(n)]
        agreeing += next(items, None) == (L, kappa) and A == hnf_from_generators(p, gens)

    _sandwich_walk(n, p, t, budget, lattice)
    return budget.count + sum(1 for _ in items), agreeing


def sandwich_subring_audit(n: int, m: int, node_budget: int | None = None) -> SandwichAudit:
    """Enumerate every subgroup G of Z^n with Z + m^2 Z^n <= G <= Z + m Z^n,
    write its HNF column by column where the sublattice walk completes
    each column of L, checking each column's HNF conditions and closure
    once per walk prefix (_sandwich_walk), and check the subring
    conditions.

    m must be a prime power p^t.  G at index m^(n-1) * p^kappa corresponds
    to a subgroup of index p^kappa in (Z/mZ)^(n-1).  The lattices are
    walked once, under one budget, and the count at each index is
    compared with the product formula's count of order p^kappa, equal to
    it by subgroup self-duality.  The size cap compares the number of
    lattices the walk will produce, the sum of those counts, with 10^8.
    An overrun's partial count is the number of lattices audited before
    it, in the diagonals already finished: each diagonal's lattices are
    added to the count once its walk is done.

    p is checked for primality once per audit, when m is split into p^t
    (_prime_power), not per matrix.  No HNFMatrix is built: each
    lattice's det is compared by its exponent, the sum of the checked
    diagonal exponents, and its last column is checked to be the identity
    (1,...,1), which puts the identity in the span.
    """
    require_at_least("sandwich_subring_audit", 1, n=n)
    require_at_least("sandwich_subring_audit", 2, m=m)
    p, t = _prime_power(m)
    budget = _Budget(f"sandwich_subring_audit(n={n}, m={m})", node_budget)
    mm = n - 1
    # index-p^kappa subgroups are equinumerous with order-p^kappa ones
    oracle = [int(count_subgroups_of_order(n, t, kappa)(p)) for kappa in range(t * mm + 1)]
    size = sum(oracle)
    if size > 10**8:
        raise ResourceLimitError(
            f"size cap of sandwich_subring_audit(n={n}, m={m})", size, 10**8, 0
        )
    per_kappa_count = [0] * (t * mm + 1)
    per_kappa_violations = [0] * (t * mm + 1)

    def lattice(rows, kappa, buf, exps, subring):
        per_kappa_count[kappa] += 1
        per_kappa_violations[kappa] += not subring

    _sandwich_walk(n, p, t, budget, lattice)
    out = tuple(
        SandwichRow(
            order_exponent=kappa,
            index_exponent=t * mm + kappa,
            sandwich_count=per_kappa_count[kappa],
            subgroup_count=oracle[kappa],
            violations=per_kappa_violations[kappa],
        )
        for kappa in range(t * mm + 1)
    )
    return SandwichAudit(n, m, out)


def _prime_power(m: int) -> tuple[int, int]:
    """(p, t) with m = p^t, p prime and t >= 1.  As p >= 2, t <= log2(m),
    and for each such t the one candidate p is the integer t-th root of
    m, so the cost is polylogarithmic in m, not linear."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    for t in range(1, m.bit_length()):
        p = _integer_root(m, t)
        if p**t == m and is_prime(p):
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
