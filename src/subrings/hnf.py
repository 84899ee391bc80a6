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

from .limits import _is_int, require_instance, require_integers, require_prime, require_sequence


@dataclass(frozen=True)
class HNFMatrix:
    """Upper-triangular HNF basis with prime-power diagonal p^(e_i)."""

    n: int
    prime: int
    diag_exponents: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        if type(n) is not int:
            require_integers("HNFMatrix", n=n)
        if (_length("diag_exponents", self.diag_exponents) != n
                or _length("rows", self.rows) != n):
            raise ValueError("dimension mismatch")
        if any(length != n for length in _row_lengths(self.rows)):
            raise ValueError("rows must have length n")
        require_prime(self.prime)
        for c, e in enumerate(self.diag_exponents):
            _check_column(self.rows, c, self.prime, e)

    @classmethod
    def from_rows(cls, prime: int, rows: Sequence[Sequence[int]]) -> "HNFMatrix":
        require_prime(prime)
        n = _length("rows", rows)
        if any(length != n for length in _row_lengths(rows)):
            raise ValueError("rows must have length n")
        exps = []
        for i in range(n):
            d = rows[i][i]
            if type(d) is not int and not _is_int(d):
                raise ValueError(f"diagonal entry ({i},{i}) must be an int, got {d!r}")
            if d < 1:  # 0 would never leave the loop below
                raise ValueError(f"diagonal entry {d} must be >= 1")
            e = 0
            while d % prime == 0:
                d //= prime
                e += 1
            if d != 1:
                raise ValueError(f"diagonal entry {rows[i][i]} is not a power of {prime}")
            exps.append(e)
        return cls(n, prime, tuple(exps), tuple(tuple(r) for r in rows))

    @property
    def det(self) -> int:
        return self.prime ** sum(self.diag_exponents)


def _length(arg: str, value) -> int:
    """len(value), with a ValueError naming arg where value is a scalar."""
    try:
        return len(value)
    except TypeError:
        raise ValueError(f"HNFMatrix requires {arg} to be a sequence, got {value!r}") from None


def _row_lengths(rows) -> list[int]:
    """The length of each row, with a ValueError naming the first row
    that is a scalar."""
    try:
        return [len(row) for row in rows]
    except TypeError:
        for i, row in enumerate(rows):
            _length(f"rows[{i}]", row)
        raise


def _check_column(rows, c: int, p: int, e) -> None:
    """The one HNF check, of column c of the square matrix rows, whose
    columns 0..c-1 have passed it: ValueError unless e is an int >= 0, the
    pivot a_cc is p^e, every entry above it an int in [0, pivot of its
    row), and every entry below it 0.  HNFMatrix runs it on each column;
    the sandwich audit runs it on each column it writes.  Each int test
    tries type(x) is int first, the common case, before _is_int."""
    if not (type(e) is int or _is_int(e)) or e < 0:
        raise ValueError(f"diagonal exponent {c} must be an int >= 0, got {e!r}")
    d = p**e
    pivot = rows[c][c]
    if not (type(pivot) is int or _is_int(pivot)) or pivot != d:
        raise ValueError(f"diagonal entry ({c},{c}) must be p^e_{c} = {d}, got {pivot!r}")
    for i in range(c):
        a = rows[i][c]
        if not ((type(a) is int or _is_int(a)) and 0 <= a < rows[i][i]):
            raise ValueError(f"entry ({i},{c}) must be an int in [0, {rows[i][i]}), got {a!r}")
    for i in range(c + 1, len(rows)):
        a = rows[i][c]
        if not ((type(a) is int or _is_int(a)) and a == 0):
            raise ValueError(f"matrix must be upper triangular, got {a!r} at ({i},{c})")


def _back_substitute(rows, x, size: int, top: int) -> bool:
    """The one triangular solver: back substitution, in place, for the
    leading size x size block of an upper-triangular integer system.

    On entry x[top:size] already hold the solution's last entries and
    x[:top] the right-hand side of rows 0..top-1; on exit x[:size] is the
    solution.  False, with x partly overwritten, when a division is
    inexact.  Exact arithmetic throughout, and nothing is allocated."""
    for i in range(top - 1, -1, -1):
        row = rows[i]
        s = x[i]
        for j in range(i + 1, size):
            xj = x[j]
            if xj:
                s -= row[j] * xj
        q, r = divmod(s, row[i])
        if r:
            return False
        x[i] = q
    return True


def solve_upper_triangular(rows, rhs):
    """Solve the leading len(rhs) x len(rhs) block of an upper-triangular
    integer system by back substitution.  Returns the integer solution
    vector or None when any division is inexact."""
    x = list(rhs)
    return x if _back_substitute(rows, x, len(x), len(x)) else None


def _ends_in_identity(rows) -> bool:
    """True iff the last column is (1,...,1), the ring identity.  Only the
    last column can be: column j < n-1 has a zero in row n-1."""
    for row in rows:
        if row[-1] != 1:
            return False
    return True


def identity_in_span(A: HNFMatrix) -> bool:
    """True iff (1,...,1)^T has an integer back-substitution solution.
    When the last column is (1,...,1) the solution is e_(n-1), and nothing
    is solved."""
    require_instance("identity_in_span", "A", A, HNFMatrix)
    rows = A.rows
    return _ends_in_identity(rows) or _back_substitute(rows, [1] * A.n, A.n, A.n)


def _column_closed(rows, j: int) -> bool:
    """Closure test for every pair of columns (i, j), i = j..0 (0-based).
    The componentwise product of columns i <= j has zeros below row i, so
    only the leading (i+1) x (i+1) block matters: columns past j are never
    read and may still be unfilled.  The block's last unknown is a_ij, as
    a_ii a_ij / a_ii, so back substitution starts at row i-1.  Pair (0, j)
    always holds and is not solved: column 0 is a_00 e_0, so its product
    with column j is a_0j times column 0.  One buffer serves every pair."""
    x = [0] * (j + 1)
    for i in range(j, 0, -1):
        for r in range(i):
            row = rows[r]
            x[r] = row[i] * row[j]
        x[i] = rows[i][j]
        if not _back_substitute(rows, x, i + 1, i):
            return False
    return True


def is_closed(A: HNFMatrix) -> bool:
    """True iff every componentwise column product lies in the column span.
    When the last column is (1,...,1), the ring identity, its product with
    any column is that column, so its pairs (i, n-1) hold and are not
    solved, as _column_closed skips pair (0, j)."""
    require_instance("is_closed", "A", A, HNFMatrix)
    rows = A.rows
    last = A.n - 1 if _ends_in_identity(rows) else A.n
    return all(_column_closed(rows, j) for j in range(last))


def is_irreducible(A: HNFMatrix) -> bool:
    """Irreducible subring-matrix shape: last column all ones and every
    entry of the first n-1 columns divisible by p."""
    require_instance("is_irreducible", "A", A, HNFMatrix)
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
    given column vectors of ints (full rank required)."""
    caller = "hnf_from_generators"
    vectors = require_sequence(caller, "vectors", vectors)
    cols = [list(require_sequence(caller, f"vectors[{j}]", v)) for j, v in enumerate(vectors)]
    require_integers(caller, **{
        f"vectors[{j}][{i}]": x for j, v in enumerate(cols) for i, x in enumerate(v)
    })
    if not cols:
        raise ValueError("hnf_from_generators needs at least one generator")
    n = len(cols[0])
    if any(len(v) != n for v in cols):
        raise ValueError("generators must all have the same length")
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
    # reduce entries above each pivot into [0, pivot), bottom row first:
    # subtracting column i changes rows 0..i only, so the rows below i
    # that are already reduced stay so
    for j in range(n):
        for i in range(j - 1, -1, -1):
            q = basis[j][i] // basis[i][i]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    rows = tuple(tuple(basis[j][i] for j in range(n)) for i in range(n))
    return HNFMatrix.from_rows(prime, rows)
