from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrings.polyp import (
    ONE,
    PolyP,
    gaussian_binomial,
    lagrange_coefficients,
    series_expand_rational,
)


def test_normalization_and_degree():
    assert PolyP([1, 2, 0, 0]).coeffs == (1, 2)
    assert PolyP().degree == float("-inf")
    assert PolyP([0, 0, 7]).degree == 2
    assert PolyP(5) == PolyP([5])


def test_arithmetic_basics():
    a = PolyP([1, 1])
    b = PolyP([-1, 1])
    assert a * b == PolyP([-1, 0, 1])
    assert a + b == PolyP([0, 2])
    assert a - a == PolyP()
    assert (a * b)(3) == 8
    assert PolyP([2, 4]).exact_div(PolyP(2)) == PolyP([1, 2])


def test_exact_div_raises_on_remainder():
    with pytest.raises(ArithmeticError):
        PolyP([1, 1, 1]).exact_div(PolyP([1, 1]))


def test_str_rendering():
    assert str(PolyP([1, 1])) == "p + 1"
    assert str(PolyP([0, -5, 1])) == "p^2 - 5*p"
    assert str(PolyP()) == "0"


def test_gaussian_binomial_small():
    assert gaussian_binomial(2, 1) == PolyP([1, 1])
    assert gaussian_binomial(5, 0) == ONE
    # expansion of the product formula, frozen from the exact-division oracle
    assert gaussian_binomial(4, 2) == PolyP([1, 1, 2, 1, 1])


def test_gaussian_binomial_domain_error():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4)


@given(st.integers(0, 12), st.integers(0, 12))
def test_gaussian_binomial_symmetry_and_value_at_one(m, r):
    if r > m:
        return
    g = gaussian_binomial(m, r)
    assert g == gaussian_binomial(m, m - r)
    assert g(1) == comb(m, r)
    if 0 < r < m:
        assert g.degree == r * (m - r)


@given(st.integers(1, 12), st.integers(0, 12))
def test_gaussian_binomial_pascal(m, r):
    if r > m:
        return
    lhs = gaussian_binomial(m, r)
    rhs = gaussian_binomial(m - 1, r) if r <= m - 1 else PolyP()
    if r >= 1:
        rhs = rhs + PolyP.monomial(m - r) * gaussian_binomial(m - 1, r - 1)
    assert lhs == rhs


def test_series_geometric():
    out = series_expand_rational([1], [(1, 1)], 3)
    assert out == [ONE, ONE, ONE, ONE]


def test_series_squares_example():
    # (1 - x^2) / (1 - x)^3 has coefficients 2e + 1
    out = series_expand_rational([1, 0, -1], [(1, 1)] * 3, 4)
    assert [c(0) for c in out] == [1, 3, 5, 7, 9]


def test_series_geometric_in_p_x_cubed():
    out = series_expand_rational([1], [(PolyP.monomial(1), 3)], 6)
    assert out == [
        ONE, PolyP(), PolyP(), PolyP.monomial(1), PolyP(), PolyP(), PolyP.monomial(2),
    ]


@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.lists(
        st.tuples(st.integers(-2, 2), st.integers(1, 3)), min_size=1, max_size=3
    ),
)
@settings(max_examples=60)
def test_series_roundtrip(num_coeffs, factors):
    # multiply back by each (1 - c*x^k), highest power first so that
    # back[e - k] is still the old coefficient
    order = 8
    back = series_expand_rational(num_coeffs, factors, order)
    for c, k in factors:
        for e in range(order, k - 1, -1):
            back[e] = back[e] - PolyP(c) * back[e - k]
    assert back == [PolyP(c) for c in num_coeffs] + [PolyP()] * (order + 1 - len(num_coeffs))


def test_lagrange_exact():
    pts = [(2, 7), (3, 13), (5, 31)]  # 1 + p + p^2
    coeffs = lagrange_coefficients(pts)
    assert coeffs == [Fraction(1), Fraction(1), Fraction(1)]
