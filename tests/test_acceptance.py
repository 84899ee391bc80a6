"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 2 is split in two.  2a checks that the cubic closed form
matches the enumerator.  2b records the transcription error in the
coefficient list that accompanies it: the transcribed list presumes a
single (1 - x^2) factor in the cubic local factor, while enumeration
forces the square.  2b keeps the transcribed list as the record of the
source, asserts the enumeration-proven list, and pins the cause of the
mismatch, the way criterion 10 handles the (6, 30) row of the bound
table; see its docstring.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from subrings.bounds import (
    bound_b_exponent,
    c7,
    cap_value,
    minorant_divergence,
    order_exponents,
)
from subrings.closure import count_solutions, extract_conditions
from subrings.counting import (
    count_irreducible,
    count_subrings,
    interpolate_count,
    recurrence_f,
    scan_by_diagonal,
    scan_subrings,
)
from subrings.hnf import identity_in_span, is_closed, is_irreducible
from subrings.partitions import compositions
from subrings.paths import (
    area,
    family_count,
    family_matrices,
    path_area_identity_check,
    path_from_composition,
    two_value_compositions,
)
from subrings.polyp import ONE, PolyP, series_expand_rational
from subrings.subgroups import (
    bound_h_exponent,
    brute_force_subgroups,
    count_subgroups_of_order,
    sandwich_subring_audit,
)
from subrings.zeta import LOCAL_FACTORS, local_coefficients, partial_sum, table1


@contextmanager
def criterion(label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL ({time.time() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {label}: PASS ({time.time() - start:.2f}s)")


def test_criterion_01_rank2_always_one():
    with criterion("01 rank-2 counts"):
        start = time.time()
        for p in (2, 3, 5):
            for e in range(0, 9):
                assert count_subrings(2, e, p) == 1
        assert time.time() - start < 1.0


def test_criterion_02a_cubic_closed_form_matches_enumerator():
    with criterion("02a cubic factor vs enumerator"):
        start = time.time()
        coeffs = local_coefficients(3, 5)
        for p in (2, 3):
            for e in range(0, 6):
                assert count_subrings(3, e, p) == coeffs[e](p), (e, p)
        assert time.time() - start < 30.0


def test_criterion_02b_cubic_coefficients_as_transcribed():
    """Records the transcription error in the cubic coefficient list and
    pins its cause.  The transcribed list 1, 3, 5, 7+p, 9+3p, 11+5p is
    the series of the single-factor form (1 - x^2) / ((1 - x)^3 (1 - p x^3)).
    The counts follow the square: the closed form
    zeta(s)^3 zeta(3s-1) / zeta(2s)^2 has local factor
    (1 - x^2)^2 / ((1 - x)^3 (1 - p x^3)), whose coefficients
    1, 3, 4, 4+p, 4+3p, 4+4p the enumerator reproduces at p in {2, 3}.
    Both lists are asserted exactly, and so is where they part."""
    with criterion("02b transcribed cubic coefficients"):
        transcribed = [
            PolyP([1]), PolyP([3]), PolyP([5]),
            PolyP([7, 1]), PolyP([9, 3]), PolyP([11, 5]),
        ]
        computed = local_coefficients(3, 5)
        assert computed == [
            PolyP([1]), PolyP([3]), PolyP([4]),
            PolyP([4, 1]), PolyP([4, 3]), PolyP([4, 4]),
        ]
        single_factor = series_expand_rational(
            [ONE, PolyP(), PolyP(-1)], LOCAL_FACTORS[3].denominator_factors, 5
        )
        assert single_factor == transcribed
        differ = [e for e in range(6) if computed[e] != transcribed[e]]
        assert differ == [2, 3, 4, 5]
        for p in (2, 3):
            for e in differ:
                count = count_subrings(3, e, p)
                assert count == computed[e](p), (e, p)
                assert count != transcribed[e](p), (e, p)


def test_criterion_03_quartic_closed_form():
    with criterion("03 quartic factor vs enumerator"):
        start = time.time()
        coeffs = local_coefficients(4, 4)
        assert coeffs[1](2) == 6
        for e in range(0, 5):
            assert count_subrings(4, e, 2) == coeffs[e](2), e
        assert time.time() - start < 300.0


def test_criterion_04_irreducible_boundary_counts():
    with criterion("04 irreducible boundary counts"):
        for n in (3, 4, 5):
            for p in (2, 3, 5):
                assert count_irreducible(n, n - 1, p) == 1, (n, p)
                assert count_irreducible(n, n, p) == (p ** (n - 1) - 1) // (p - 1), (n, p)


def test_criterion_05_degree_two_interpolation():
    with criterion("05 quadratic interpolation with holdout"):
        poly = interpolate_count(4, 5, (2, 3, 5, 7), 2, irreducible=True)
        assert isinstance(poly, PolyP), poly
        assert poly.degree == 2
        # zero residual: the fit reproduces every datapoint exactly
        for q in (2, 3, 5, 7):
            assert poly(q) == count_irreducible(4, 5, q)


def test_criterion_06_two_exponent_families():
    with criterion("06 two-exponent families"):
        pairs = [
            (k, l)
            for k in range(1, 5)
            for l in range(1, 5)
            if k != l and l >= -(-k // 2)
        ]
        for n in range(2, 6):
            for d in range(0, n):
                for k, l in pairs:
                    for alpha in two_value_compositions(n, d, k, l):
                        expected = family_count(alpha, k, l)
                        exponent = (k - (-(-k // 2))) * area(
                            path_from_composition(alpha, k, l)
                        )
                        assert expected == PolyP.monomial(exponent)
                        for p in (2, 3):
                            mats = list(family_matrices(alpha, k, l, p))
                            assert len(mats) == expected(p), (alpha, k, l, p)
                            assert all(
                                identity_in_span(A) and is_closed(A) and is_irreducible(A)
                                for A in mats
                            )


def test_criterion_07_path_area_generating_function():
    with criterion("07 path-area generating function"):
        for u in range(0, 9):
            for v in range(0, 9 - u):
                for q in (2, 3, 5):
                    assert path_area_identity_check(u, v, q), (u, v, q)


# shapes whose total subgroup count exceeds any enumeration budget
# (8.3e6 up to 4.9e11 subgroups); every other admissible shape is verified
INFEASIBLE_SHAPES = {
    (2, 1, 10),
    (2, 1, 11),
    (2, 1, 12),
    (2, 1, 13),
    (2, 2, 7),
}
ENUMERATION_CAP = 2_500_000


@pytest.mark.slow
def test_criterion_08_subgroup_formula_vs_brute_force():
    with criterion("08 subgroup counts vs brute force"):
        verified = 0
        skipped = set()
        for p in (2, 3):
            t = 1
            while p**t <= 4096:
                n = 2
                while p ** (t * (n - 1)) <= 4096:
                    total = sum(
                        int(count_subgroups_of_order(n, t, k)(p))
                        for k in range(t * (n - 1) + 1)
                    )
                    if total > ENUMERATION_CAP:
                        skipped.add((p, t, n))
                    else:
                        for k in range(t * (n - 1) + 1):
                            assert brute_force_subgroups(n, t, k, p) == int(
                                count_subgroups_of_order(n, t, k)(p)
                            ), (n, t, k, p)
                            verified += 1
                    n += 1
                t += 1
        assert skipped == INFEASIBLE_SHAPES, skipped
        print(
            f"  criterion 08: {verified} points verified exactly; "
            f"{sorted(skipped)} beyond enumeration budget"
        )


def test_criterion_09_sandwich_bridge():
    with criterion("09 sandwich subgroups are subrings"):
        for n in (3, 4):
            for m in (2, 3, 4):
                audit = sandwich_subring_audit(n, m)
                assert audit.total_violations == 0, (n, m)
                for row in audit.rows:
                    assert row.sandwich_count == row.subgroup_count, (n, m, row)


def test_criterion_10_bound_table():
    with criterion("10 bound table vs printed values"):
        start = time.time()
        rows = table1()
        mismatch = [r for r in rows if not (r.h_match and r.b_match)]
        assert len(rows) == 10
        assert len(mismatch) == 1
        row = mismatch[0]
        assert (row.n, row.e) == (6, 30)
        assert (row.h_computed, row.b_computed) == (24, 24)
        assert time.time() - start < 1.0


def test_criterion_11_caps():
    with criterion("11 exponent caps"):
        for n in range(2, 51):
            for e in range(n - 1, 501):
                cap = cap_value(n, e) + 1e-9
                assert bound_h_exponent(n, e) <= cap, (n, e)
                assert bound_b_exponent(n, e) <= cap, (n, e)


def test_criterion_12_closure_extraction():
    with criterion("12 symbolic closure vs enumeration"):
        start = time.time()
        for p in (2, 3, 5):
            sys1 = extract_conditions((3, 2, 1, 1))
            assert count_solutions(sys1, p) == scan_by_diagonal((3, 2, 1, 1), p), p
        for n in (2, 3, 4):
            for e in range(n - 1, 7):
                for alpha in compositions(n, e):
                    system = extract_conditions(alpha)
                    for p in (2, 3, 5):
                        assert count_solutions(system, p) == scan_by_diagonal(
                            alpha, p
                        ), (alpha, p)
        assert time.time() - start < 300.0


def test_criterion_13_recurrence():
    with criterion("13 counting recurrence"):
        for n in range(1, 5):
            for e in range(0, 5):
                for p in (2, 3):
                    assert recurrence_f(n, e, p) == scan_subrings(n, e, p), (n, e, p)


def test_criterion_14_divergence_boundary():
    with criterion("14 divergence boundary"):
        assert c7(6) == Fraction(6, 7)
        assert c7(10) == Fraction(20, 13)
        assert order_exponents(6).order_divergence_c7 == Fraction(3, 7)
        assert order_exponents(10).order_divergence_c7 == Fraction(10, 13)
        for n in (6, 10):
            rho, d = c7(n, with_argmax=True)
            for j in range(-5, 6):
                s = rho + Fraction(j, 1000)
                expect = s <= rho
                assert minorant_divergence(d, n, s) == expect, (n, s)
                ps = partial_sum(n, 2, s, 60, d=d)
                assert ps.still_growing == expect, (n, s)
            at_boundary = partial_sum(n, 2, rho, 60, d=d)
            assert at_boundary.last_term_ratio == pytest.approx(1.0, abs=1e-12)
