"""Closed-form local factors of the subring zeta function for n <= 4,
partial-sum diagnostics, and the bound comparison table.

The partial sums run at 60 significant digits on the standard library's
decimal module, so the package needs nothing outside it.

With x = p^(-s) the local factors expand as rational series whose x^e
coefficient is the polynomial f_n(p^e).  The cubic factor
(1 - x^2)^2 / ((1 - x)^3 (1 - p x^3)) is the local factor of the closed
form zeta(s)^3 zeta(3s-1) / zeta(2s)^2 for Z^3 (Datskovsky-Wright; Liu,
"Counting subrings of Z^n of index k", JCTA 2007); the brute-force
enumerator reproduces its coefficients at small primes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from decimal import (
    MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation,
    localcontext,
)
from fractions import Fraction

from .bounds import bound_b_exponent, c7
from .limits import require_at_least, require_integers, require_prime, require_real
from .polyp import ONE, PolyP, series_expand_rational
from .subgroups import bound_h_exponent

P = PolyP.monomial  # P(k, c) = c * p^k


@dataclass(frozen=True)
class LocalFactor:
    n: int
    numerator: tuple[PolyP, ...]  # coefficient of x^e
    denominator_factors: tuple[tuple[PolyP, int], ...]  # (c, k) means 1 - c x^k


LOCAL_FACTORS: dict[int, LocalFactor] = {
    2: LocalFactor(2, (ONE,), ((ONE, 1),)),
    # (1 - x^2)^2 / ((1 - p x^3)(1 - x)^3)
    3: LocalFactor(
        3,
        (ONE, PolyP(), PolyP(-2), PolyP(), ONE),
        ((P(1), 3), (ONE, 1), (ONE, 1), (ONE, 1)),
    ),
    # quartic numerator over (1-x)^2 (1-p^2 x^4)(1-p^3 x^6)
    4: LocalFactor(
        4,
        (
            ONE,
            PolyP(4),
            PolyP(2),
            PolyP([-3, 4]),
            PolyP([-1, 5]),
            PolyP([0, -5, 1]),
            PolyP([0, -4, 3]),
            PolyP([0, 0, -2]),
            PolyP([0, 0, -4]),
            PolyP([0, 0, -1]),
        ),
        ((ONE, 1), (ONE, 1), (P(2), 4), (P(3), 6)),
    ),
}


def local_coefficients(n: int, order: int) -> list[PolyP]:
    """f_n(p^e) for e = 0..order as exact polynomials in p (n in {2,3,4})."""
    require_integers("local_coefficients", n=n)
    if n not in LOCAL_FACTORS:
        raise ValueError(f"no closed-form local factor for n = {n}")
    require_at_least("local_coefficients", 0, order=order)
    lf = LOCAL_FACTORS[n]
    return series_expand_rational(lf.numerator, lf.denominator_factors, order)


@dataclass(frozen=True)
class PartialSum:
    """Partial sum of a local factor (or its geometric minorant) with a
    term-ratio flag at the cutoff."""

    value: float
    last_term_ratio: float
    still_growing: bool  # term ratio >= 1 within 1e-12 at the cutoff


_RATIO_TOL = 1e-12
# the float's exact value; from_float, unlike Decimal(), raises no
# FloatOperation flag in the importing thread's context
_GROWING = Decimal.from_float(1 - _RATIO_TOL)

# Every partial sum runs in a copy of this context, whatever the caller's
# decimal context is.  Its exponent range reaches far past the floats', and
# a term beyond even that becomes inf or 0 (overflow and underflow are not
# trapped), as the float it is returned as would.
_CONTEXT = Context(
    prec=60,
    rounding=ROUND_HALF_EVEN,
    Emin=MIN_EMIN,
    Emax=MAX_EMAX,
    traps=[InvalidOperation, DivisionByZero],
)


def _decimal(x: Fraction) -> Decimal:
    """x rounded once to the current context."""
    return Decimal(x.numerator) / x.denominator


def partial_sum(
    n: int, p: int, s: int | float | Fraction, E: int, d: int | None = None
) -> PartialSum:
    """Sum the first E+1 terms of the local factor at real s.

    For n <= 4 the exact coefficients are used.  For larger n the
    geometric minorant with parameter d (default: the c7 argmax) supplies
    lower-bound terms p^(e * rho - d(n-1-d)) with rho = d(n-1-d)/(n-1+d),
    supported on e >= n-1.  s is an int (not a bool), a finite float or a
    Fraction, taken exactly.  A d given for n <= 4 is refused, as the
    exact coefficients do not depend on it.  Evaluation runs at 60
    significant digits in a decimal context of its own: the caller's
    context neither changes the result nor is changed.
    """
    require_at_least("partial_sum", 2, n=n)
    require_at_least("partial_sum", 0, E=E)
    if d is not None:
        require_integers("partial_sum", d=d)
    require_prime(p)
    require_real("partial_sum", s)
    if d is not None and not 0 <= d <= n - 1:
        raise ValueError(f"d must lie in [0, n-1] = [0, {n - 1}], got {d}")
    if d is not None and n <= 4:
        raise ValueError(
            f"d selects the geometric minorant, which partial_sum uses only for n > 4; "
            f"got d={d} at n={n}"
        )
    with localcontext(_CONTEXT):
        if n <= 4:
            coeffs = [c(p) for c in local_coefficients(n, E)]
            q = Decimal(p) ** -_decimal(Fraction(s))
            total, power = Decimal(0), Decimal(1)
            for c in coeffs:
                total += c * power
                power *= q
            ratio = q * coeffs[E] / coeffs[E - 1] if E >= 1 else Decimal("Infinity")
            growing = ratio >= _GROWING
        else:
            if d is None:
                _, d = c7(n, with_argmax=True)
            rho = Fraction(d * (n - 1 - d), n - 1 + d)
            ratio = Decimal(p) ** _decimal(rho - Fraction(s))
            term = Decimal(p) ** -(d * (n - 1 - d)) * ratio ** (n - 1)
            total = Decimal(0)
            for _ in range(n - 1, E + 1):
                total += term
                term *= ratio
            if isinstance(s, float):
                growing = ratio >= _GROWING
            else:
                growing = Fraction(s) <= rho
        return PartialSum(float(total), float(ratio), growing)


# Published table of exponent values, embedded verbatim; the comparator
# reports disagreements instead of trusting either side.
TABLE1_PRINTED: tuple[tuple[int, int, int, int], ...] = (
    (6, 10, 0, 6),
    (6, 20, 16, 12),
    (6, 30, 30, 30),
    (6, 300, 256, 252),
    (6, 1000, 856, 852),
    (10, 10, 8, 8),
    (10, 20, 16, 20),
    (10, 30, 36, 40),
    (10, 300, 460, 460),
    (10, 1000, 1538, 1520),
)


@dataclass(frozen=True)
class Table1Row:
    n: int
    e: int
    h_computed: int
    b_computed: int
    h_printed: int
    b_printed: int

    @property
    def h_match(self) -> bool:
        return self.h_computed == self.h_printed

    @property
    def b_match(self) -> bool:
        return self.b_computed == self.b_printed

    def to_dict(self) -> dict:
        return {**asdict(self), "h_match": self.h_match, "b_match": self.b_match}


def table1() -> list[Table1Row]:
    """Recompute both bound exponents for every published row."""
    rows = []
    for n, e, hp, bp in TABLE1_PRINTED:
        rows.append(
            Table1Row(n, e, bound_h_exponent(n, e), bound_b_exponent(n, e), hp, bp)
        )
    return rows
