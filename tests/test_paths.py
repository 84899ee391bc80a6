import re

import pytest

from subrings.counting import count_by_diagonal
from subrings.hnf import identity_in_span, is_closed, is_irreducible
from subrings.paths import (
    NORTH,
    area,
    family_count,
    family_matrices,
    iter_paths,
    path_area_identity_check,
    path_from_composition,
    two_value_compositions,
)
from subrings.polyp import PolyP, gaussian_binomial


def test_area_examples():
    assert area(("N", "E", "N", "E", "N")) == 3
    assert area(("E", "E", "E", "N", "N")) == 0
    # all-north then all-east fills the u x v rectangle
    assert area(("N",) * 3 + ("E",) * 4) == 12
    with pytest.raises(ValueError, match="steps must be 'N' or 'E'"):
        area(("N", "W", "E"))


def geometric_area(path):
    # area under the path between x = 0 and x = u, column by column
    x = y = 0
    under = 0
    for s in path:
        if s == NORTH:
            y += 1
        else:
            under += y
            x += 1
    return under


def test_inversion_count_equals_geometric_area():
    for u in range(0, 5):
        for v in range(0, 5):
            for P in iter_paths(u, v):
                assert area(P) == geometric_area(P)
                assert (P.count("E"), P.count("N")) == (u, v)


def test_path_from_composition():
    P = path_from_composition((3, 5, 3, 3, 5), 3, 5)
    assert P == ("N", "E", "N", "N", "E")
    assert area(P) == 4
    assert path_from_composition((2, 2, 2), 2, 1) == ("N", "N", "N")
    with pytest.raises(ValueError):
        path_from_composition((3, 4), 3, 5)
    with pytest.raises(ValueError):
        path_from_composition((3, 3), 3, 3)


def test_rectangle_composition_area():
    n, d, k, l = 7, 2, 2, 1
    gamma = (k,) * d + (l,) * (n - 1 - d)
    assert area(path_from_composition(gamma, k, l)) == d * (n - 1 - d)


def test_family_counts_and_membership():
    mats = list(family_matrices((2, 1, 2, 1, 2), 2, 1, 2))
    assert len(mats) == 8 == family_count((2, 1, 2, 1, 2), 2, 1)(2)
    assert all(identity_in_span(A) and is_closed(A) and is_irreducible(A) for A in mats)

    mats = list(family_matrices((3, 5, 3, 3, 5), 5, 3, 3))
    assert len(mats) == 81 == family_count((3, 5, 3, 3, 5), 5, 3)(3)
    assert all(identity_in_span(A) and is_closed(A) and is_irreducible(A) for A in mats)

    assert family_count((4, 4, 4), 4, 2) == PolyP([1])
    only = list(family_matrices((4, 4, 4), 4, 2, 3))
    assert len(only) == 1


def test_family_requires_half_exponent():
    with pytest.raises(ValueError):
        family_matrices((3, 1, 3), 3, 1, 2).__next__()
    with pytest.raises(ValueError):
        family_count((3, 1, 3), 3, 1)


def test_family_never_exceeds_full_diagonal_count():
    for p in (2, 3):
        for alpha in two_value_compositions(4, 2, 2, 1):
            assert family_count(alpha, 2, 1)(p) <= count_by_diagonal(alpha, p)


def test_area_maximality_of_sorted_composition():
    for n in range(2, 8):
        for d in range(0, n):
            gamma = (2,) * d + (1,) * (n - 1 - d)
            best = area(path_from_composition(gamma, 2, 1))
            for alpha in two_value_compositions(n, d, 2, 1):
                assert area(path_from_composition(alpha, 2, 1)) <= best


def test_family_sum_is_gaussian_binomial():
    # summing p^Area over all arrangements reproduces [n-1, d]_p
    for n in range(2, 8):
        for d in range(0, n):
            total = PolyP()
            for alpha in two_value_compositions(n, d, 2, 1):
                total = total + family_count(alpha, 2, 1)
            assert total == gaussian_binomial(n - 1, d)


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, 2), "iter_paths requires u >= 0, got u=-1"),
        ((2, -1), "iter_paths requires v >= 0, got v=-1"),
        ((1.5, 2), "iter_paths requires an integer u, got 1.5"),
        ((2, 2.0), "iter_paths requires an integer v, got 2.0"),
    ],
)
def test_iter_paths_refuses_bad_endpoints(args, message):
    # (-1, 2) used to yield no path at all
    with pytest.raises(ValueError, match=re.escape(message)):
        next(iter_paths(*args))


@pytest.mark.parametrize(
    "call, args, message",
    [
        (lambda *a: list(two_value_compositions(*a)), (3, 1, 2.0, 1),
         "two_value_compositions requires an integer k, got 2.0"),
        (lambda *a: list(two_value_compositions(*a)), (3.0, 1, 2, 1),
         "two_value_compositions requires an integer n, got 3.0"),
        (family_count, ((2, 1), 2.0, 1), "family_count requires an integer k, got 2.0"),
        (family_count, ((2, 1), 2, True), "family_count requires an integer l, got True"),
        (lambda *a: list(family_matrices(*a)), ((2, 1), 2.0, 1, 2),
         "family_matrices requires an integer k, got 2.0"),
        # family_count((-2, -1), -2, -1) used to return 1, and
        # two_value_compositions(3, 1, -2, -1) to yield negative parts
        (family_count, ((-2, -1), -2, -1), "family_count requires k >= 1, got k=-2"),
        (family_count, ((2, 0), 2, 0), "family_count requires l >= 1, got l=0"),
        (lambda *a: list(family_matrices(*a)), ((1, 0), 1, 0, 2),
         "family_matrices requires l >= 1, got l=0"),
        (lambda *a: list(two_value_compositions(*a)), (3, 1, -2, -1),
         "two_value_compositions requires k >= 1, got k=-2"),
        (lambda *a: list(two_value_compositions(*a)), (3, 1, 0, 1),
         "two_value_compositions requires k >= 1, got k=0"),
        (family_count, ((1.0, 2), 2, 1), "composition parts must be integers >= 1: (1.0, 2)"),
        (lambda *a: list(family_matrices(*a)), ((2, 1.0), 2, 1, 2),
         "composition parts must be integers >= 1: (2, 1.0)"),
        (path_from_composition, ((2.0, 1), 2, 1), "composition parts must be integers >= 1: (2.0, 1)"),
        (path_from_composition, ((2, 1), 2, True), "path_from_composition requires an integer l, got True"),
        (path_from_composition, ((2, 1), 2.0, 1), "path_from_composition requires an integer k, got 2.0"),
    ],
)
def test_family_entry_points_refuse_non_integers(call, args, message):
    # (3, 1, 2.0, 1) used to give [(2.0, 1), (1, 2.0)], family_count((1.0,
    # 2), 2, 1) PolyP([1]), and the last two a path; the others raised a
    # TypeError from range or from a float exponent
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)


def test_path_area_identity():
    assert path_area_identity_check(1, 1, 2)
    assert path_area_identity_check(0, 5, 7)
    assert path_area_identity_check(2, 2, 3)
    # [4 2]_p = p^4 + p^3 + 2p^2 + p + 1 evaluates to 130 at p = 3
    assert sum(3 ** area(P) for P in iter_paths(2, 2)) == 130 == gaussian_binomial(4, 2)(3)


@pytest.mark.parametrize(
    "args, bad",
    [
        ((1, 1, float("nan")), "q, got nan"),
        ((1, 1, 1.5), "q, got 1.5"),
        ((1, 1, "2"), "q, got '2'"),
        ((1, 1, True), "q, got True"),
        (("2", 1, 2), "u, got '2'"),
        ((1, True, 2), "v, got True"),
    ],
)
def test_path_area_identity_refuses_non_integers(args, bad):
    # q = NaN used to return False, q = 1.5 and True to return True, and
    # '2' to raise a TypeError from ** or <
    with pytest.raises(ValueError, match=re.escape(f"path_area_identity_check requires an integer {bad}")):
        path_area_identity_check(*args)
