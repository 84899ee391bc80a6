from fractions import Fraction

import pytest

from subrings.bounds import c7
from subrings.counting import count_subrings
from subrings.polyp import ONE, PolyP
from subrings.zeta import (
    TABLE1_PRINTED,
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
