"""Exact arithmetic in Z[p]: polynomials in a formal prime p, and the
expansion of rational series in x = p^(-s), truncated at a fixed order,
whose coefficients come back as a list of such polynomials.

Everything here is arbitrary-precision integer arithmetic.  Counts of
subrings and subgroups overflow 64 bits quickly as p and e grow, so no
floating point is used anywhere in this module.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Sequence

from .limits import require_at_least, require_integers, require_sequence

NEG_INF = float("-inf")


class PolyP:
    """Polynomial in the symbol p with integer coefficients.

    ``coeffs[i]`` is the coefficient of p^i.  Instances are normalized
    (no trailing zeros) and treated as immutable values.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: int | Iterable[int] = ()):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def monomial(cls, k: int, coeff: int = 1) -> "PolyP":
        if coeff == 0:
            return cls()
        return cls([0] * k + [coeff])

    @property
    def degree(self):
        """Index of the highest nonzero coefficient; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "PolyP":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return PolyP(out)

    __radd__ = __add__

    def __neg__(self) -> "PolyP":
        return PolyP([-v for v in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "PolyP":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyP()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return PolyP(out)

    __rmul__ = __mul__

    def __call__(self, p):
        """Evaluate at a concrete value (int, Fraction, float)."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * p + c
        return out

    def __repr__(self) -> str:
        return f"PolyP({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                base = "p" if i == 1 else f"p^{i}"
                term = base if abs(c) == 1 else f"{abs(c)}*{base}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


def _coerce(value) -> PolyP:
    if isinstance(value, PolyP):
        return value
    if isinstance(value, int):
        return PolyP(value)
    return NotImplemented


ZERO = PolyP()
ONE = PolyP(1)


def gaussian_binomial(m: int, r: int) -> PolyP:
    """Gaussian binomial [m r]_p as an exact PolyP of degree r(m-r).

    Built row by row with no division, by the rule
    [a s] = p^s [a-1 s] + [a-1 s-1], and memoised (_gaussian_binomial,
    emptied by counting.clear_caches) behind the argument checks: True
    hashes as 1, so a bool would otherwise find the entry of 1.
    """
    require_at_least("gaussian_binomial", 0, m=m, r=r)
    if r > m:
        raise ValueError(f"gaussian_binomial({m}, {r}): r exceeds m")
    return _gaussian_binomial(m, min(r, m - r))


@functools.lru_cache(maxsize=1024)
def _gaussian_binomial(m: int, r: int) -> PolyP:
    """[m r]_p for checked ints 0 <= r <= m - r."""
    row = [ONE] + [ZERO] * r  # [a s] for s = 0..r, at a = 0
    for a in range(1, m + 1):
        for s in range(min(a, r), 0, -1):
            row[s] = PolyP.monomial(s) * row[s] + row[s - 1]
    return row[r]


def lagrange_coefficients(points: Sequence[tuple[int, int]]) -> list[Fraction]:
    """Coefficients (ascending) of the unique degree <= len(points)-1
    polynomial through the given points, as exact Fractions."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct abscissae")
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        # numerator polynomial prod_{j != i} (x - xj), by repeated multiplication
        num = [Fraction(1)]
        den = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(num) + 1)
            for k, c in enumerate(num):
                nxt[k + 1] += c
                nxt[k] -= c * xj
            num = nxt
            den *= xi - xj
        scale = Fraction(yi) / den
        for k, c in enumerate(num):
            coeffs[k] += c * scale
    return coeffs


def series_expand_rational(
    numerator: Sequence[PolyP | int],
    denominator_factors: Sequence[tuple[PolyP | int, int]],
    order: int,
) -> list[PolyP]:
    """Exact expansion of numerator / prod (1 - c*x^k) through x^order, as
    the list of the order + 1 coefficients of x^0, ..., x^order.

    Each denominator factor (c, k) with k >= 1 is a unit in the truncated
    series ring; its reciprocal is the geometric series sum_j c^j x^(jk),
    folded in by one convolution pass per factor.  Every coefficient is a
    PolyP or an int.
    """
    caller = "series_expand_rational"
    require_at_least(caller, 0, order=order)
    numerator = require_sequence(caller, "numerator", numerator)
    out = [_coefficient(f"numerator[{i}]", c) for i, c in enumerate(numerator)][: order + 1]
    out += [ZERO] * (order + 1 - len(out))
    denominator_factors = require_sequence(caller, "denominator_factors", denominator_factors)
    for i, factor in enumerate(denominator_factors):
        try:
            c, k = factor
        except (TypeError, ValueError):
            raise ValueError(f"{caller} requires denominator_factors[{i}] to be a pair (c, k), "
                             f"got {factor!r}") from None
        require_at_least(caller, 1, k=k)
        c = _coefficient("c", c)
        # in-place forward pass: out[e] += c * out[e-k] realizes the geometric factor
        for e in range(k, order + 1):
            out[e] = out[e] + c * out[e - k]
    return out


def _coefficient(arg: str, c) -> PolyP:
    """c as a PolyP, refused unless a PolyP or an int (True is refused)."""
    if not isinstance(c, PolyP):
        require_integers("series_expand_rational", **{arg: c})
        c = PolyP(c)
    return c
