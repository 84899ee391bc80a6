import decimal
import random
from fractions import Fraction

import mpmath
import pytest

from subrings.bounds import c7
from subrings.counting import count_subrings
from subrings.limits import require_integers, require_prime
from subrings.polyp import ONE, PolyP
from subrings.zeta import (
    _RATIO_TOL,
    TABLE1_PRINTED,
    PartialSum,
    local_coefficients,
    partial_sum,
    table1,
)


def test_rank2_all_ones():
    assert local_coefficients(2, 10) == [ONE] * 11


def test_rank3_coefficients():
    """Frozen from the exhaustive enumerator at p in {2, 3, 5}; the cubic
    local factor carries (1 - x^2) squared, which these values pin down."""
    got = local_coefficients(3, 5)
    assert got == [
        PolyP([1]),
        PolyP([3]),
        PolyP([4]),
        PolyP([4, 1]),
        PolyP([4, 3]),
        PolyP([4, 4]),
    ]


def test_rank3_matches_enumerator():
    coeffs = local_coefficients(3, 5)
    for p in (2, 3):
        for e in range(6):
            assert coeffs[e](p) == count_subrings(3, e, p)
    assert coeffs[3](5) == count_subrings(3, 3, 5)


def test_rank4_matches_enumerator():
    coeffs = local_coefficients(4, 4)
    for e in range(5):
        assert coeffs[e](2) == count_subrings(4, e, 2)
    for e in range(4):
        assert coeffs[e](3) == count_subrings(4, e, 3)


def test_constant_term_and_nonnegativity():
    for n in (2, 3, 4):
        coeffs = local_coefficients(n, 12)
        assert coeffs[0] == ONE
        for c in coeffs:
            assert all(v >= 0 for v in c.coeffs), (n, c)


def test_unknown_rank_rejected():
    with pytest.raises(ValueError):
        local_coefficients(5, 3)


def test_partial_sum_monotone_in_cutoff():
    values = [partial_sum(3, 2, 0.0, E).value for E in range(1, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert partial_sum(3, 2, 0.0, 10).still_growing


def test_partial_sum_exact_mode():
    ps = partial_sum(3, 2, 1, 4)
    expected = Fraction(1) + Fraction(3, 2) + Fraction(4, 4) + Fraction(6, 8) + Fraction(10, 16)
    assert ps.value == pytest.approx(float(expected))


@pytest.mark.parametrize("p", [4, 1, 0, -2])
def test_partial_sum_rejects_non_prime(p):
    with pytest.raises(ValueError, match="prime"):
        partial_sum(3, p, 2, 5)


def test_partial_sum_rejects_minorant_parameter_outside_range():
    # d outside [0, n-1] used to give a value; it is refused at every rank
    for n, d in ((6, 9), (6, 6), (6, -1), (3, 3)):
        with pytest.raises(ValueError, match=r"d must lie in \[0, n-1\]"):
            partial_sum(n, 2, 1, 3, d=d)
    # both ends of the range are accepted
    for d in (0, 5):
        assert partial_sum(6, 2, 1, 3, d=d).value >= 0


def test_partial_sum_refuses_minorant_parameter_at_small_rank():
    # for n <= 4 the exact coefficients are summed and d was ignored:
    # partial_sum(3, 2, 1, 4, d=1) equalled partial_sum(3, 2, 1, 4)
    for n, d in ((3, 1), (4, 0)):
        with pytest.raises(ValueError, match=r"d selects the geometric minorant, .* n > 4"):
            partial_sum(n, 2, 1, 4, d=d)
        assert partial_sum(n, 2, 1, 4).value > 0


def test_minorant_boundary_ratios():
    for n in (6, 10):
        rho, d = c7(n, with_argmax=True)
        at = partial_sum(n, 2, rho, 40, d=d)
        assert at.still_growing
        assert at.last_term_ratio == pytest.approx(1.0, abs=1e-12)
        above = partial_sum(n, 2, rho + Fraction(1, 10), 40, d=d)
        assert not above.still_growing
        assert above.last_term_ratio < 1
        below = partial_sum(n, 2, rho - Fraction(1, 10), 40, d=d)
        assert below.still_growing
        assert below.last_term_ratio > 1


def mpmath_partial_sum(n: int, p: int, s, E: int, d: int | None = None) -> PartialSum:
    """partial_sum as it was written on mpmath at 100-bit precision: the
    oracle for the decimal version."""
    require_integers("partial_sum", n=n, E=E)
    if d is not None:
        require_integers("partial_sum", d=d)
    require_prime(p)
    if E < 0:
        raise ValueError("E must be nonnegative")
    if d is not None and not 0 <= d <= n - 1:
        raise ValueError(f"d must lie in [0, n-1] = [0, {n - 1}], got {d}")
    if n <= 4:
        coeffs = local_coefficients(n, E)
        with mpmath.workprec(100):
            terms = [
                mpmath.mpf(c(p)) * mpmath.power(p, -mpmath.mpf(e) * s)
                for e, c in enumerate(coeffs)
            ]
            total = mpmath.fsum(terms)
            ratio = terms[E] / terms[E - 1] if E >= 1 else mpmath.inf
            return PartialSum(
                float(total), float(ratio), bool(ratio >= 1 - _RATIO_TOL)
            )
    if d is None:
        _, d = c7(n, with_argmax=True)
    rho = Fraction(d * (n - 1 - d), n - 1 + d)
    shift = d * (n - 1 - d)
    with mpmath.workprec(100):
        if isinstance(s, Fraction):
            s_mp = mpmath.mpf(s.numerator) / s.denominator
        else:
            s_mp = mpmath.mpf(s)
        rho_mp = mpmath.mpf(rho.numerator) / rho.denominator
        ratio = mpmath.power(p, rho_mp - s_mp)
        terms = [
            mpmath.power(p, mpmath.mpf(e) * (rho_mp - s_mp) - shift)
            for e in range(n - 1, E + 1)
        ]
        total = mpmath.fsum(terms) if terms else mpmath.mpf(0)
        if isinstance(s, (Fraction, int)):
            growing = Fraction(s) <= rho
        else:
            growing = bool(ratio >= 1 - _RATIO_TOL)
        return PartialSum(float(total), float(ratio), growing)


def oracle_calls():
    """A seeded grid over n 2-9, p <= 11, E <= 40, with d given or not and
    s a float in [-1, 4), a Fraction in [-20, 80] or an int in [-1, 4];
    then criterion 14's calls on the c7 boundary."""
    rng = random.Random(20261020)
    for _ in range(600):
        n, p, E = rng.randint(2, 9), rng.choice((2, 3, 5, 7, 11)), rng.randint(0, 40)
        s = rng.choice((
            rng.uniform(-1, 4),
            Fraction(rng.randint(-2000, 8000), 100),
            rng.randint(-1, 4),
        ))
        d = rng.choice((None, rng.randint(0, n - 1))) if n > 4 else None
        yield n, p, s, E, d
    for n in (6, 10):
        rho, d = c7(n, with_argmax=True)
        for j in range(-5, 6):
            yield n, 2, rho + Fraction(j, 1000), 60, d


def test_partial_sum_matches_mpmath_oracle():
    for call in oracle_calls():
        got, want = partial_sum(*call), mpmath_partial_sum(*call)
        assert [repr(x) for x in (got.value, got.last_term_ratio, got.still_growing)] == [
            repr(x) for x in (want.value, want.last_term_ratio, want.still_growing)
        ], call


@pytest.mark.parametrize("s", [float("inf"), float("-inf"), float("nan"), "1.5", True, None])
@pytest.mark.parametrize("n, E", [(3, 5), (6, 9)])
def test_partial_sum_refuses_s_that_is_not_a_finite_real(n, E, s):
    # inf raised ZeroDivisionError, NaN gave NaN in every field, True was
    # taken as s = 1, and "1.5" was parsed at n = 6 but not at n = 3
    with pytest.raises(ValueError, match=r"partial_sum requires s to be an int, a finite float"):
        partial_sum(n, 2, s, E)


def test_partial_sum_ignores_and_keeps_the_callers_decimal_context():
    calls = [(3, 2, 1.5, 12), (4, 3, Fraction(7, 3), 20), (6, 3, 2.0, 9), (10, 2, Fraction(20, 13), 60)]
    expected = [partial_sum(*call) for call in calls]
    caller = decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR)
    state = repr(caller)
    with decimal.localcontext(caller) as current:
        assert [partial_sum(*call) for call in calls] == expected
        assert decimal.getcontext() is current
        assert repr(current) == state  # precision, rounding, traps and no flags raised


def test_table1_reports_exactly_one_mismatch():
    rows = table1()
    assert len(rows) == len(TABLE1_PRINTED) == 10
    bad = [r for r in rows if not (r.h_match and r.b_match)]
    assert len(bad) == 1
    row = bad[0]
    assert (row.n, row.e) == (6, 30)
    assert (row.h_computed, row.b_computed) == (24, 24)
    assert (row.h_printed, row.b_printed) == (30, 30)


def test_table1_row_dict_schema():
    d = table1()[0].to_dict()
    assert set(d) == {
        "n", "e", "h_computed", "b_computed", "h_printed", "b_printed",
        "h_match", "b_match",
    }
