import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrings import polyp
from subrings.counting import clear_caches
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


@pytest.mark.parametrize(
    "call, args, message",
    [
        (gaussian_binomial, (4.0, 2), "gaussian_binomial requires an integer m, got 4.0"),
        (gaussian_binomial, (True, 1), "gaussian_binomial requires an integer m, got True"),
        (gaussian_binomial, (4, 2.0), "gaussian_binomial requires an integer r, got 2.0"),
        (series_expand_rational, ([1], [(1, 1)], 2.0),
         "series_expand_rational requires an integer order, got 2.0"),
        (series_expand_rational, ([1], [(1, 1.5)], 2),
         "series_expand_rational requires an integer k, got 1.5"),
    ],
)
def test_non_integer_arguments_refused(call, args, message):
    # gaussian_binomial(True, 1) returned PolyP([1]); the others raised a
    # TypeError from range
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)


@pytest.mark.parametrize(
    "coeffs, message",
    [
        # '12' built PolyP(['1', '2']), and 1.5 raised a TypeError
        ("12", "PolyP requires coeffs to be an int or a sequence of ints, got '12'"),
        (1.5, "PolyP requires coeffs to be a sequence, got 1.5"),
        (True, "PolyP requires coeffs to be a sequence, got True"),
        (None, "PolyP requires coeffs to be a sequence, got None"),
        ([1, True], "PolyP requires integer coeffs, got True in [1, True]"),
        ((2, 1.0), "PolyP requires integer coeffs, got 1.0 in (2, 1.0)"),
        ([Fraction(1, 2)], "PolyP requires integer coeffs, got Fraction(1, 2)"),
    ],
)
def test_polyp_refuses_non_integer_coefficients(coeffs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PolyP(coeffs)


def test_polyp_compares_unequal_to_a_bool_and_refuses_it_as_an_operand():
    # PolyP refuses a bool, so == answers False (as for any other type)
    # instead of raising, and arithmetic with one is unsupported
    one = PolyP([1])
    assert (one == True) is False  # noqa: E712
    assert one != False  # noqa: E712
    assert True not in [one]
    assert [one, True].index(True) == 1
    assert one == 1 and 1 == one
    for operation in (lambda: one + True, lambda: one * False,
                      lambda: True - one, lambda: one - True, lambda: "1" - one):
        with pytest.raises(TypeError):
            operation()


@given(st.lists(st.integers(-5, 5), max_size=5), st.lists(st.integers(-5, 5), max_size=5))
def test_arithmetic_results_are_normalized(a, b):
    # sums, differences, products and negations are built without
    # PolyP's checks; each must still equal the checked construction
    pa, pb = PolyP(a), PolyP(b)
    width = max(len(a), len(b))
    sums = [x + y for x, y in zip(a + [0] * width, b + [0] * width)]
    products = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            products[i + j] += x * y
    for result, expected in ((pa + pb, sums), (pa * pb, products), (-pa, [-x for x in a]),
                             (pa - pa, []), (3 - pa, [3 - a[0] if a else 3] + [-x for x in a[1:]])):
        assert type(result) is PolyP
        assert result.coeffs == PolyP(expected).coeffs
        assert not result.coeffs or result.coeffs[-1] != 0


def test_gaussian_binomial_memo_keeps_its_checks():
    # the memo sits behind the checks: True == 1 and hash(True) == hash(1),
    # so a cached [1 1] must not answer (True, 1), nor [2 1] answer (2, -1)
    clear_caches()
    assert gaussian_binomial(1, 1) == ONE
    assert gaussian_binomial(4, 1) is gaussian_binomial(4, 3)  # one entry, r <= m - r
    for args in [(True, 1), (1, True), (4, -1), (-1, 0), (4, 5)]:
        with pytest.raises(ValueError):
            gaussian_binomial(*args)
    assert polyp._gaussian_binomial.cache_info().currsize == 2
    clear_caches()
    assert polyp._gaussian_binomial.cache_info().currsize == 0


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
