import math
from dataclasses import asdict
from fractions import Fraction

import mpmath
import pytest

from subrings.bounds import (
    CAP_SLOPE,
    a_exponent,
    bound_b_exponent,
    bound_c_exponent,
    bound_report,
    c7,
    cap_value,
    divergence_line,
    minorant_divergence,
    order_exponents,
)
from subrings.counting import count_subrings
from subrings.subgroups import bound_h_exponent, max_degree_order_count
from subrings.zeta import local_coefficients, partial_sum


def test_bound_b_values():
    assert bound_b_exponent(6, 10, with_argmax=True) == (6, 2)
    assert bound_b_exponent(10, 20, with_argmax=True) == (20, 4)
    assert bound_b_exponent(10, 1000, with_argmax=True) == (1520, 4)
    with pytest.raises(ValueError):
        bound_b_exponent(5, 3)


def test_c7_values():
    assert c7(2) == 0
    assert c7(6, with_argmax=True) == (Fraction(6, 7), 2)
    assert c7(10, with_argmax=True) == (Fraction(20, 13), 4)


def test_a_exponent_values():
    assert a_exponent(2) == 1
    assert a_exponent(6) == 1
    assert a_exponent(10) == Fraction(21, 13)
    assert all(a_exponent(n) > 1 for n in range(7, 101))


def test_divergence_line_values():
    assert divergence_line(2) == pytest.approx(3 - 2 * math.sqrt(2) + 1 - math.sqrt(2))
    assert divergence_line(100) == pytest.approx(CAP_SLOPE * 99 + 1 - math.sqrt(2))
    # strictly weaker than the integer-optimized abscissa
    assert all(divergence_line(n) <= float(c7(n)) + 1e-12 for n in range(2, 101))


def test_c7_over_n_limit():
    for n in range(60, 200):
        assert abs(float(c7(n)) / n - CAP_SLOPE) < 0.02


def test_order_exponents():
    oe = order_exponents(6)
    assert oe.order_growth == Fraction(1, 2)
    assert order_exponents(10).order_divergence_c7 == Fraction(10, 13)
    assert order_exponents(2).order_growth == Fraction(1, 2)
    assert order_exponents(6).order_divergence_line == pytest.approx(divergence_line(6) / 2)


def test_minorant_divergence_boundary():
    assert minorant_divergence(2, 6, Fraction(6, 7))  # boundary included
    assert not minorant_divergence(2, 6, 0.9)
    assert minorant_divergence(0, 4, 0)
    assert minorant_divergence(2, 6, float(Fraction(6, 7)) - 1e-9)
    with pytest.raises(ValueError):
        minorant_divergence(9, 6, 0.1)


@pytest.mark.parametrize(
    "call, args, arg",
    [
        (bound_h_exponent, (6, 30.0), "e"),
        (max_degree_order_count, (4.0, 1, 1), "n"),
        (bound_b_exponent, (6, 10.0), "e"),
        (bound_c_exponent, (6.0, 10), "n"),
        (c7, (6.0,), "n"),
        (a_exponent, (6.0,), "n"),
        (minorant_divergence, (1, 4.0, 1), "n"),
        (minorant_divergence, (1.0, 4, 1), "d"),
        (local_coefficients, (3, 4.0), "order"),
        (local_coefficients, (3.0, 4), "n"),
        (partial_sum, (3.0, 2, 1, 4), "n"),
        (partial_sum, (3, 2, 1, 4.0), "E"),
        (partial_sum, (6, 2, 1, 8, 1.0), "d"),
    ],
)
def test_bound_and_zeta_entry_points_refuse_non_integers(call, args, arg):
    # each used to return a float (bound_b_exponent(6, 10.0) gave 6.0) or
    # fail with a TypeError from range or a slice
    with pytest.raises(ValueError, match=f"{call.__name__} requires an integer {arg},"):
        call(*args)


def test_minorant_divergence_rejects_rank_below_two():
    # n = 1 left d = 0 in range and divided 0 by 0
    for n in (1, 0, -1):
        with pytest.raises(ValueError, match="requires n >= 2"):
            minorant_divergence(0, n, 1)


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, -1), "needs e >= n-1, got e=-1"),
        ((5, 3), "needs e >= n-1, got e=3"),
        ((1, 5), "requires n >= 2"),
        ((3.0, 4), "requires an integer n, got 3.0"),
        ((3, 4.5), "requires an integer e, got 4.5"),
    ],
)
def test_cap_value_refuses_what_bound_b_exponent_refuses(args, message):
    # cap_value(3, -1) used to return -0.343
    for call in (cap_value, bound_b_exponent):
        with pytest.raises(ValueError, match=f"{call.__name__} {message}"):
            call(*args)


def test_caps_hold_on_grid():
    for n in range(2, 31):
        for e in range(n - 1, 201):
            cap = cap_value(n, e) + 1e-9
            assert bound_b_exponent(n, e) <= cap
            assert bound_h_exponent(n, e) <= cap


def test_c_is_a_relaxation_below_b():
    for n, e in [(4, 10), (6, 20), (6, 300), (10, 30), (10, 300), (25, 100)]:
        assert bound_c_exponent(n, e) <= bound_b_exponent(n, e) + 1e-6


def test_c_left_edge_behaviour():
    """At e = n-1 the discrete bound degenerates to 0 while the smooth
    objective still peaks slightly above it: the floor-dropping chain that
    keeps c below b reverses sign once C(n-1) < 1, so the c <= b relation
    only holds away from the left edge.  The exponent stays tiny, and
    f_n(p^(n-1)) >= 1 = p^0 comfortably dominates both readings."""
    assert bound_b_exponent(6, 5) == 0
    c65 = bound_c_exponent(6, 5)
    assert c65 == pytest.approx(0.2066284478, abs=1e-8)
    # f_3(p^2) = 4 beats p^c at the left edge for the oracle-reachable case
    assert 4 >= 2 ** bound_c_exponent(3, 2)


def test_c_argmax_approaches_silver_ratio():
    _, C = bound_c_exponent(200, 10**6, with_argmax=True)
    assert abs(C - (math.sqrt(2) - 1)) < 0.005
    _, C = bound_c_exponent(2000, 10**8, with_argmax=True)
    assert abs(C - (math.sqrt(2) - 1)) < 0.0005


def test_c_matches_independent_optimizer():
    """Golden-section result vs high-precision derivative root finding."""
    n, e = 6, 1000
    value, C = bound_c_exponent(n, e, with_argmax=True)

    def objective(C_):
        q = (C_ - C_**2) * (n - 1) + (C_ - 1)
        return e * q / (C_ + 1) - ((C_ - C_**2) * (n - 1) ** 2 + (C_ - 1) * (n - 1))

    with mpmath.workdps(40):
        f = lambda x: objective(mpmath.mpf(x))
        df = lambda x: mpmath.diff(f, x)
        root = mpmath.findroot(df, mpmath.mpf("0.4"))
        best = f(root)
        assert 0 < float(root) < 1
        assert abs(value - float(best)) < 1e-6


def test_exponent_bounds_hold_at_desk_scale():
    # f_n(p^e) really does dominate p^h and p^b where the oracle can reach
    for n in (3, 4):
        for e in range(n - 1, 5):
            h = bound_h_exponent(n, e)
            b = bound_b_exponent(n, e)
            for p in (2, 3):
                f = count_subrings(n, e, p)
                assert f >= p**h, (n, e, p)
                assert f >= p**b, (n, e, p)


def test_bound_report_shape():
    rep = bound_report(6, 20)
    d = asdict(rep)
    assert d["h"] == 16 and d["b"] == 12
    assert d["h"] <= d["cap"] and d["b"] <= d["cap"]
    assert d["c"] <= d["b"] + 1e-6
    assert set(d) == {"n", "e", "h", "b", "c", "argmax_t", "argmax_d", "argmax_C", "cap"}
