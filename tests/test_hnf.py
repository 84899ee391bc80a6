import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrings.counting import count_by_diagonal
from subrings.hnf import (
    HNFMatrix,
    hnf_from_generators,
    identity_in_span,
    is_closed,
    is_irreducible,
    solve_upper_triangular,
)


def mat(p, rows):
    return HNFMatrix.from_rows(p, rows)


def test_validation():
    with pytest.raises(ValueError):
        mat(2, [[2, 2], [0, 1]])  # entry not reduced mod the row pivot
    with pytest.raises(ValueError):
        mat(2, [[3, 0], [0, 1]])  # diagonal not a power of p
    # a zero diagonal entry used to loop forever dividing out the prime
    for rows in ([[0]], [[1, 0], [0, 0]], [[-2]]):
        with pytest.raises(ValueError, match="must be >= 1"):
            mat(2, rows)
    A = mat(2, [[4, 1], [0, 1]])
    assert A.diag_exponents == (2, 0)
    assert A.det == 4


@pytest.mark.parametrize(
    "build, message",
    [
        # the first two raised "TypeError: object of type 'int' has no len()"
        (lambda: HNFMatrix(2, 2, 3, 4), "HNFMatrix requires diag_exponents to be a sequence, got 3"),
        (lambda: HNFMatrix.from_rows(2, 3), "HNFMatrix requires rows to be a sequence, got 3"),
        (lambda: HNFMatrix(2, 2, (1, 0), 4), "HNFMatrix requires rows to be a sequence, got 4"),
        (lambda: HNFMatrix(2, 2, (1, 0), ((2, 1), 5)),
         "HNFMatrix requires rows[1] to be a sequence, got 5"),
        (lambda: HNFMatrix.from_rows(2, [2, 1]), "HNFMatrix requires rows[0] to be a sequence, got 2"),
        (lambda: HNFMatrix.from_rows(2, [[2], [0, 1]]), "rows must have length n"),
        (lambda: HNFMatrix.from_rows(2, [["2"]]), "diagonal entry (0,0) must be an int, got '2'"),
        (lambda: HNFMatrix(2.0, 2, (1, 0), ((2, 1), (0, 1))),
         "HNFMatrix requires an integer n, got 2.0"),
    ],
)
def test_malformed_matrix_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_identity_in_span():
    assert identity_in_span(mat(5, [[1, 0], [0, 1]]))
    # columns (p^e, 0), (1, 1)
    assert identity_in_span(mat(3, [[27, 1], [0, 1]]))
    # diag (p, p): last row gives p*x = 1
    assert not identity_in_span(mat(3, [[3, 1], [0, 3]]))


def test_is_closed_rank2():
    assert is_closed(mat(3, [[27, 1], [0, 1]]))
    # columns (p, 0), (1, p): v2 o v2 = (1, p^2) is not in the span
    assert not is_closed(mat(2, [[2, 1], [0, 2]]))


def depth_3211_matrix(p, a12, a13, a14, a23, a24):
    # diagonal (3, 2, 1, 1) block with ones column; entries are p * a_ij
    return mat(
        p,
        [
            [p**3, p * a12, p * a13, p * a14, 1],
            [0, p**2, p * a23, p * a24, 1],
            [0, 0, p, 0, 1],
            [0, 0, 0, p, 1],
            [0, 0, 0, 0, 1],
        ],
    )


def test_closure_on_depth_3211():
    # a13 = 1, everything else 0: a13^2 - a13 = 0 so the congruences hold
    assert is_closed(depth_3211_matrix(2, 0, 1, 0, 0, 0))
    # at p = 3 with a13 = 2: a13^2 - a13 = 2 is nonzero mod 3
    assert not is_closed(depth_3211_matrix(3, 0, 2, 0, 0, 0))


def test_is_irreducible():
    A = mat(2, [[2, 1], [0, 1]])
    assert is_irreducible(A) and is_closed(A) and identity_in_span(A)
    assert not is_irreducible(mat(2, [[1, 0], [0, 1]]))


def test_idempotent_recheck():
    # for accepted matrices, re-deriving every product keeps integer solves
    A = depth_3211_matrix(2, 0, 1, 0, 0, 0)
    for i in range(5):
        for j in range(i, 5):
            rhs = [A.rows[r][i] * A.rows[r][j] for r in range(5)]
            assert solve_upper_triangular(A.rows, rhs) is not None


def test_hnf_from_generators_roundtrip():
    A = mat(3, [[9, 3, 1], [0, 3, 1], [0, 0, 1]])
    cols = [tuple(row[j] for row in A.rows) for j in range(3)]
    # throw in redundant combinations; the HNF must come back identical
    extra = [tuple(3 * x for x in cols[0]), tuple(x + y for x, y in zip(cols[1], cols[2]))]
    B = hnf_from_generators(3, cols + extra)
    assert B == A


def test_hnf_from_generators_rank_check():
    with pytest.raises(ValueError):
        hnf_from_generators(2, [(2, 0), (4, 0)])


def test_hnf_from_generators_refuses_malformed_generators():
    # both used to raise an IndexError
    with pytest.raises(ValueError, match="needs at least one generator"):
        hnf_from_generators(2, [])
    for gens in ([(2, 0), (0,)], [(2,), (0, 2)]):
        with pytest.raises(ValueError, match="generators must all have the same length"):
            hnf_from_generators(2, gens)


@pytest.mark.parametrize("exponent, entry", [(-1, 0.5), (1.0, 2.0), (1.5, 2), ("1", 2)])
def test_diagonal_exponent_must_be_a_non_negative_int(exponent, entry):
    # (-1, 0.5) used to build a matrix with diagonal 0.5 and det 0.5
    with pytest.raises(ValueError, match="diagonal exponent 0 must be an int >= 0, got "):
        HNFMatrix(1, 2, (exponent,), ((entry,),))


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 2, (1, 0), ((2, 0.5), (0, 1))), r"entry \(0,1\) must be an int in \[0, 2\), got 0.5"),
        ((2, 2, (1, 0), ((2.0, 0), (0, 1))), r"diagonal entry \(0,0\) must be p\^e_0 = 2, got 2.0"),
        ((2, 2, (1, 0), ((2, 1), (0.0, 1))), r"matrix must be upper triangular, got 0.0"),
        ((2, 2, (1, True), ((2, 0), (0, 2))), r"diagonal exponent 1 must be an int >= 0, got True"),
        ((2, 4, (1, 0), ((4, 0), (0, 1))), r"p must be a prime, got 4"),
        ((2, 2.0, (1, 0), ((2, 0), (0, 1))), r"p must be a prime, got 2.0"),
    ],
)
def test_hnf_matrix_refuses_non_int_entries_and_non_prime_p(args, message):
    # all six used to be accepted
    with pytest.raises(ValueError, match=message):
        HNFMatrix(*args)


@given(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
    st.data(),
)
@settings(max_examples=60)
def test_hnf_from_generators_roundtrip_random(e1, e2, e3, data):
    """A matrix rebuilt from its own columns plus random integer
    combinations of them must come back bit-identical."""
    p = 3
    d = [p**e1, p**e2, p**e3]
    rows = [
        [d[0], data.draw(st.integers(0, d[0] - 1)), data.draw(st.integers(0, d[0] - 1))],
        [0, d[1], data.draw(st.integers(0, d[1] - 1))],
        [0, 0, d[2]],
    ]
    A = HNFMatrix.from_rows(p, rows)
    cols = [[row[j] for row in A.rows] for j in range(3)]
    extras = []
    for _ in range(2):
        coeffs = [data.draw(st.integers(-3, 3)) for _ in range(3)]
        extras.append([sum(c * col[r] for c, col in zip(coeffs, cols)) for r in range(3)])
    assert hnf_from_generators(p, cols + extras) == A


def determinant(m) -> int:
    """Laplace expansion along the first row; 1 for the empty matrix."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * determinant([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def mix(data, gens) -> list[list[int]]:
    """gens shuffled, then a few times one generator plus an integer
    multiple of another: the same lattice."""
    gens = [list(g) for g in data.draw(st.permutations(gens))]
    for _ in range(data.draw(st.integers(0, 4))):
        i, j = data.draw(st.integers(0, len(gens) - 1)), data.draw(st.integers(0, len(gens) - 1))
        if i != j:
            c = data.draw(st.integers(-3, 3))
            gens[i] = [x + c * y for x, y in zip(gens[i], gens[j])]
    return gens


@st.composite
def generator_sets(draw):
    """A prime and a small full-rank generator set whose lattice has index
    a power of it: a few random vectors and p^k times each unit vector,
    mixed."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 2))
    vector = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    free = draw(st.lists(vector, max_size=3))
    units = [[p**k if i == j else 0 for i in range(n)] for j in range(n)]
    return p, mix(draw(st.data()), free + units)


@given(generator_sets())
@settings(max_examples=200)
def test_hnf_from_generators_keeps_the_span(case):
    p, gens = case
    H = hnf_from_generators(p, gens)
    n = H.n
    # every generator is an integer combination of the HNF columns
    for g in gens:
        assert solve_upper_triangular(H.rows, g) is not None
    # and the HNF's index is that of the generators' lattice, so the two
    # lattices are equal
    minors = [
        determinant([[g[r] for g in chosen] for r in range(n)])
        for chosen in itertools.combinations(gens, n)
    ]
    assert H.det == math.gcd(*minors)


@given(generator_sets(), st.data())
@settings(max_examples=200)
def test_hnf_from_generators_is_canonical(case, data):
    p, gens = case
    assert hnf_from_generators(p, mix(data, gens)) == hnf_from_generators(p, gens)


@st.composite
def triangular_systems(draw):
    """An n x n upper-triangular integer matrix with positive diagonal, a
    block size 1 <= m <= n and an integer right-hand side of length n."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-12, 12)
    rows = [
        [draw(st.integers(1, 9)) if j == i else draw(entry) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    m = draw(st.integers(1, n))
    rhs = [draw(st.integers(-200, 200)) for _ in range(n)]
    return rows, m, rhs


def fraction_back_substitution(rows, rhs, m):
    """Reference: exact rational solution of the leading m x m block."""
    x = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        x[i] = (rhs[i] - sum(rows[i][j] * x[j] for j in range(i + 1, m))) / Fraction(rows[i][i])
    return x


@given(triangular_systems(), st.data())
@settings(max_examples=300)
def test_solve_upper_triangular_against_fractions(system, data):
    rows, m, rhs = system
    n = len(rows)
    # A x solves back to x
    x = [data.draw(st.integers(-20, 20)) for _ in range(n)]
    ax = [sum(rows[i][j] * x[j] for j in range(n)) for i in range(n)]
    assert solve_upper_triangular(rows, ax) == x
    # None exactly when the rational solution is non-integral
    ref = fraction_back_substitution(rows, rhs, m)
    got = solve_upper_triangular(rows, rhs[:m])
    if all(v.denominator == 1 for v in ref):
        assert got == [int(v) for v in ref]
    else:
        assert got is None
    # a solve reads only the leading len(rhs) x len(rhs) block of rows
    block = [row[:m] for row in rows[:m]]
    assert solve_upper_triangular(block, rhs[:m]) == got


def test_family_example_matrices_are_certified():
    # diagonal (2,1,2,1,2): entries a_12, a_14, a_34 free over [0, p)
    p = 2
    for a12 in range(p):
        for a14 in range(p):
            for a34 in range(p):
                A = mat(
                    p,
                    [
                        [4, p * a12, 0, p * a14, 0, 1],
                        [0, 2, 0, 0, 0, 1],
                        [0, 0, 4, p * a34, 0, 1],
                        [0, 0, 0, 2, 0, 1],
                        [0, 0, 0, 0, 4, 1],
                        [0, 0, 0, 0, 0, 1],
                    ],
                )
                assert identity_in_span(A) and is_closed(A) and is_irreducible(A)
    assert count_by_diagonal((2, 1, 2, 1, 2), 2) >= 8


@st.composite
def hnf_matrices(draw):
    """A random HNF matrix: n <= 4, prime-power diagonal, reduced entries."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 4))
    d = [p ** draw(st.integers(0, 3)) for _ in range(n)]
    rows = [
        [d[i] if j == i else draw(st.integers(0, d[i] - 1)) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    return HNFMatrix.from_rows(p, rows)


def closed_by_fractions(A):
    """Reference: every product of two columns, (0, j) pairs included,
    solved exactly over the rationals."""
    rows, n = A.rows, A.n
    for i in range(n):
        for j in range(n):
            rhs = [rows[r][i] * rows[r][j] for r in range(n)]
            if any(x.denominator != 1 for x in fraction_back_substitution(rows, rhs, n)):
                return False
    return True


@given(hnf_matrices())
@settings(max_examples=400)
def test_is_closed_against_all_pairs(A):
    assert is_closed(A) == closed_by_fractions(A)


@st.composite
def identity_column_matrices(draw):
    """A random HNF matrix, n <= 6, whose last column is (1,...,1): every
    other pivot is p^e with e >= 1, so 1 is reduced in its row, and the
    other entries are random, so most draws are not closed."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 6))
    d = [p ** draw(st.integers(1, 3)) for _ in range(n - 1)] + [1]
    rows = [
        [d[i] if j == i else 1 if j == n - 1 else draw(st.integers(0, d[i] - 1)) if j > i else 0
         for j in range(n)]
        for i in range(n)
    ]
    return HNFMatrix.from_rows(p, rows)


@given(identity_column_matrices())
@settings(max_examples=400)
def test_identity_column_shortcut_against_all_pairs(A):
    # is_closed and identity_in_span solve nothing for the identity column
    assert is_closed(A) == closed_by_fractions(A)
    assert identity_in_span(A)
