"""Hermite-normal-form matrices and the subring-matrix tests.

A sublattice of Z^n of finite index has a unique upper-triangular basis
matrix with 0 <= a_ij < a_ii for i < j (entries reduced modulo the pivot
of their row).  The lattice is the column span.  A subring matrix is such
a basis whose span contains (1,...,1) and is closed under componentwise
products of its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .limits import require_prime


@dataclass(frozen=True)
class HNFMatrix:
    """Upper-triangular HNF basis with prime-power diagonal p^(e_i)."""

    n: int
    prime: int
    diag_exponents: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, p = self.n, self.prime
        if len(self.diag_exponents) != n or len(self.rows) != n:
            raise ValueError("dimension mismatch")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError("rows must have length n")
            d = p ** self.diag_exponents[i]
            if row[i] != d:
                raise ValueError(f"diagonal entry ({i},{i}) must be p^e_i = {d}")
            if any(row[j] != 0 for j in range(i)):
                raise ValueError("matrix must be upper triangular")
            if any(not (0 <= row[j] < d) for j in range(i + 1, n)):
                raise ValueError(f"row {i} entries must lie in [0, {d})")

    @classmethod
    def from_rows(cls, prime: int, rows: Sequence[Sequence[int]]) -> "HNFMatrix":
        require_prime(prime)
        n = len(rows)
        exps = []
        for i in range(n):
            d = rows[i][i]
            e = 0
            while d % prime == 0:
                d //= prime
                e += 1
            if d != 1:
                raise ValueError(f"diagonal entry {rows[i][i]} is not a power of {prime}")
            exps.append(e)
        return cls(n, prime, tuple(exps), tuple(tuple(r) for r in rows))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.rows[i][j] for i in range(self.n))

    @property
    def det(self) -> int:
        return self.prime ** sum(self.diag_exponents)


def solve_upper_triangular(rows, rhs, size: int | None = None):
    """Solve the leading size x size block of an upper-triangular integer
    system by back substitution.  Returns the integer solution vector or
    None when any division is inexact.  Exact arithmetic throughout."""
    m = len(rhs) if size is None else size
    x = [0] * m
    for i in range(m - 1, -1, -1):
        row = rows[i]
        s = rhs[i]
        for j in range(i + 1, m):
            xj = x[j]
            if xj:
                s -= row[j] * xj
        q, r = divmod(s, row[i])
        if r:
            return None
        x[i] = q
    return x


def identity_in_span(A: HNFMatrix) -> bool:
    """True iff (1,...,1)^T has an integer back-substitution solution."""
    return solve_upper_triangular(A.rows, [1] * A.n) is not None


def _column_closed(rows, j: int) -> bool:
    """Closure test for every pair of columns (i, j), i = j..0 (0-based).
    The componentwise product of columns i <= j has zeros below row i, so
    only the leading (i+1) x (i+1) block matters: columns past j are never
    read and may still be unfilled.  Pair (0, j) always holds and is not
    solved: column 0 is a_00 e_0, so its product with column j is a_0j
    times column 0."""
    for i in range(j, 0, -1):
        rhs = [rows[r][i] * rows[r][j] for r in range(i + 1)]
        if solve_upper_triangular(rows, rhs, i + 1) is None:
            return False
    return True


def is_closed(A: HNFMatrix) -> bool:
    """True iff every componentwise column product lies in the column span."""
    return all(_column_closed(A.rows, j) for j in range(A.n))


def is_irreducible(A: HNFMatrix) -> bool:
    """Irreducible subring-matrix shape: last column all ones and every
    entry of the first n-1 columns divisible by p."""
    n, p = A.n, A.prime
    if any(A.rows[i][n - 1] != 1 for i in range(n)):
        return False
    for j in range(n - 1):
        for i in range(j + 1):
            if A.rows[i][j] % p != 0:
                return False
    return True


def hnf_from_generators(prime: int, vectors: Sequence[Sequence[int]]) -> HNFMatrix:
    """Upper-triangular column-HNF basis of the lattice generated by the
    given column vectors (full rank required)."""
    n = len(vectors[0])
    cols = [list(v) for v in vectors]
    basis: list[list[int] | None] = [None] * n
    # eliminate from the bottom row up, keeping every remainder column in
    # the pool so no lattice content is lost
    for i in range(n - 1, -1, -1):
        while True:
            nz = [c for c in cols if c[i] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[i]))
            piv = nz[0]
            for c in nz[1:]:
                q = c[i] // piv[i]
                for r in range(n):
                    c[r] -= q * piv[r]
        piv = next((c for c in cols if c[i] != 0), None)
        if piv is None:
            raise ValueError("generators do not span a full-rank lattice")
        if piv[i] < 0:
            for r in range(n):
                piv[r] = -piv[r]
        basis[i] = piv
        cols = [c for c in cols if c is not piv]
    # reduce entries above each pivot into [0, pivot)
    for j in range(n):
        for i in range(j):
            q = basis[j][i] // basis[i][i]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    rows = tuple(tuple(basis[j][i] for j in range(n)) for i in range(n))
    return HNFMatrix.from_rows(prime, rows)
