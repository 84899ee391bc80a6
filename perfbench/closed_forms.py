"""Closed forms the reference table is checked against.

They are copied here as constants, so the benchmark never asks the code
under test what the right answer is.

* g_5(p^6) and g_5(p^7): the degree-4 polynomials fitted through six
  primes and frozen in the library's counting tests.
* f_3(p^e) and f_4(p^e): the x^e coefficients of the cubic and quartic
  local factors of the subring zeta function (x = p^-s),
      (1 - x^2)^2 / ((1 - p x^3)(1 - x)^3)          for n = 3,
      N_4(x) / ((1 - x)^2 (1 - p^2 x^4)(1 - p^3 x^6))  for n = 4,
  expanded here in integers at a concrete prime.
* f_2(p^e) = 1.
"""

from __future__ import annotations

G5 = {6: (1, 1, 2, 11, 1), 7: (1, 1, 6, 21, 15)}

# numerator: coefficient of x^e as a polynomial in p (constant term first);
# denominator: factors (c, k) meaning 1 - c(p) x^k
LOCAL_FACTORS = {
    2: ([(1,)], [((1,), 1)]),
    3: (
        [(1,), (), (-2,), (), (1,)],
        [((0, 1), 3), ((1,), 1), ((1,), 1), ((1,), 1)],
    ),
    4: (
        [(1,), (4,), (2,), (-3, 4), (-1, 5), (0, -5, 1), (0, -4, 3), (0, 0, -2),
         (0, 0, -4), (0, 0, -1)],
        [((1,), 1), ((1,), 1), ((0, 0, 1), 4), ((0, 0, 0, 1), 6)],
    ),
}


def poly_at(coeffs, p: int) -> int:
    return sum(c * p**i for i, c in enumerate(coeffs))


def f_local(n: int, e: int, p: int) -> int:
    """f_n(p^e) for n in {2, 3, 4} from the local factor."""
    numerator, factors = LOCAL_FACTORS[n]
    series = [poly_at(numerator[i], p) if i < len(numerator) else 0 for i in range(e + 1)]
    for c, k in factors:
        # multiply by 1 / (1 - c x^k) = sum_j c^j x^(jk)
        cp = poly_at(c, p)
        for i in range(k, e + 1):
            series[i] += cp * series[i - k]
    return series[e]


def g5(e: int, p: int) -> int:
    return poly_at(G5[e], p)


def closed_form(key: str) -> int | None:
    """The closed-form value of a reference key, or None when there is none."""
    kind, _, rest = key.partition("(")
    if kind not in ("f", "g"):
        return None
    n, e, p = (int(x) for x in rest.rstrip(")").split(","))
    if kind == "f" and n in LOCAL_FACTORS:
        return f_local(n, e, p)
    if kind == "g" and n == 5 and e in G5:
        return g5(e, p)
    return None
