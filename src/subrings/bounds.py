"""Closed-form lower-bound exponents and divergence abscissas.

The two families of exponents (subgroup route h, matrix-family route b)
are integers; the continuous relaxation c and the linear divergence line
are the only real-valued quantities, maximized numerically to a stated
tolerance.  Rational outputs are exact Fractions so table reproduction is
bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .limits import require_at_least, require_index, require_integers, require_real
from .subgroups import bound_h_exponent

SQRT2 = math.sqrt(2.0)
CAP_SLOPE = 3.0 - 2.0 * SQRT2  # limit of the exponent-to-(n-1)e ratio


def cap_value(n: int, e: int) -> float:
    """CAP_SLOPE * (n-1) * e, which no exponent of f_n(p^e) exceeds."""
    require_index("cap_value", n, e)
    return CAP_SLOPE * (n - 1) * e


def bound_b_exponent(n: int, e: int, with_argmax: bool = False):
    """Matrix-family exponent: max over d in [0, n-1] of
    floor(e/(n-1+d)) * d(n-1-d).  f_n(p^e) >= p^b."""
    require_index("bound_b_exponent", n, e)
    best, best_d = 0, 0
    for d in range(0, n):
        v = (e // (n - 1 + d)) * d * (n - 1 - d)
        if v > best:
            best, best_d = v, d
    return (best, best_d) if with_argmax else best


def _c_objective(C: float, n: int, e: int) -> float:
    q = (C - C * C) * (n - 1) + (C - 1.0)
    return e * q / (C + 1.0) - ((C - C * C) * (n - 1) ** 2 + (C - 1.0) * (n - 1))


def bound_c_exponent(n: int, e: int, with_argmax: bool = False):
    """Continuous relaxation of the matrix-family bound: maximum over
    C in [0, 1] of the smooth objective, to absolute tolerance 1e-9
    (grid of 10^4 points, then golden-section on the best cell)."""
    require_index("bound_c_exponent", n, e)
    grid = 10**4
    best_i, best_v = 0, -math.inf
    for i in range(grid + 1):
        v = _c_objective(i / grid, n, e)
        if v > best_v:
            best_i, best_v = i, v
    lo = max(0.0, (best_i - 1) / grid)
    hi = min(1.0, (best_i + 1) / grid)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - inv_phi * (b - a)
    c2 = a + inv_phi * (b - a)
    f1 = _c_objective(c1, n, e)
    f2 = _c_objective(c2, n, e)
    while b - a > 1e-12:
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + inv_phi * (b - a)
            f2 = _c_objective(c2, n, e)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - inv_phi * (b - a)
            f1 = _c_objective(c1, n, e)
    C = (a + b) / 2.0
    value = _c_objective(C, n, e)
    return (value, C) if with_argmax else value


def c7(n: int, with_argmax: bool = False):
    """Divergence abscissa of the local factors from the matrix-family
    route: max over integer d of d(n-1-d)/(n-1+d), as an exact Fraction."""
    require_at_least("c7", 2, n=n)
    best, best_d = Fraction(0), 0
    for d in range(0, n):
        v = Fraction(d * (n - 1 - d), n - 1 + d)
        if v > best:
            best, best_d = v, d
    return (best, best_d) if with_argmax else best


def a_exponent(n: int) -> Fraction:
    """Growth exponent for the subring count: max over integer d of
    (d(n-1-d) + 1)/(n-1+d), exact."""
    require_at_least("a_exponent", 2, n=n)
    return max(Fraction(d * (n - 1 - d) + 1, n - 1 + d) for d in range(n))


def divergence_line(n: int) -> float:
    """Linear-in-n divergence bound (3 - 2*sqrt(2))(n-1) + 1 - sqrt(2);
    strictly weaker than c7 but explicit."""
    require_at_least("divergence_line", 2, n=n)
    return CAP_SLOPE * (n - 1) + 1.0 - SQRT2


@dataclass(frozen=True)
class OrderExponents:
    """Order-counting variants: the discriminant index is the square of the
    module index, so every exponent halves (s -> 2s substitution)."""

    order_growth: Fraction
    order_divergence_c7: Fraction
    order_divergence_line: float


def order_exponents(n: int) -> OrderExponents:
    return OrderExponents(
        order_growth=a_exponent(n) / 2,
        order_divergence_c7=c7(n) / 2,
        order_divergence_line=divergence_line(n) / 2.0,
    )


def minorant_divergence(d: int, n: int, s) -> bool:
    """True iff the geometric minorant with parameter d diverges at s,
    i.e. s <= d(n-1-d)/(n-1+d) (boundary included: term ratio exactly 1).

    Exact for int/Fraction s; floats are compared as floats.  s must be
    an int (not a bool), a finite float or a Fraction.
    """
    require_at_least("minorant_divergence", 2, n=n)
    require_integers("minorant_divergence", d=d)
    if not 0 <= d <= n - 1:
        raise ValueError("d must lie in [0, n-1]")
    require_real("minorant_divergence", s)
    threshold = Fraction(d * (n - 1 - d), n - 1 + d)
    if isinstance(s, float):
        return s <= float(threshold)
    return Fraction(s) <= threshold


@dataclass(frozen=True)
class BoundReport:
    """All exponents for one (n, e), with argmax witnesses and the cap,
    named and ordered as the keys of the CLI's bounds JSON."""

    n: int
    e: int
    h: int
    b: int
    c: float
    argmax_t: int | None
    argmax_d: int
    argmax_C: float
    cap: float


def bound_report(n: int, e: int) -> BoundReport:
    h, t = bound_h_exponent(n, e, with_argmax=True)
    b, d = bound_b_exponent(n, e, with_argmax=True)
    c, C = bound_c_exponent(n, e, with_argmax=True)
    return BoundReport(n, e, h, b, c, t, d, C, cap_value(n, e))
