"""Node budgets, and the argument checks of every public entry point.

Every module checks its arguments with these helpers, once per public
call and never per node; each refusal is a ValueError naming the
argument.  A leaf module: every other module imports it, and it imports
none of them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

DEFAULT_NODE_BUDGET = 10**9


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration exceeds its node budget; carries the
    partial progress instead of silently truncating.

    partial_count is a lower bound on the exact answer: it adds up only
    what was counted before the budget ran out.
    """

    def __init__(self, context: str, nodes: int, budget: int, partial_count: int):
        super().__init__(
            f"node budget exceeded in {context}: {nodes} nodes > budget {budget} "
            f"(partial count {partial_count})"
        )
        self.context = context
        self.nodes = nodes
        self.budget = budget
        self.partial_count = partial_count

    def with_partial(self, partial_count: int) -> "ResourceLimitError":
        """The same overrun, reported with an enclosing count's partial."""
        return ResourceLimitError(self.context, self.nodes, self.budget, partial_count)


class _Budget:
    """Nodes spent by one public call, however many enumerations it runs.
    count is the innermost enumeration's running total, reported as the
    partial count when the limit is crossed.  A limit that is not an int
    (a float or a bool) or is negative is refused: every enumeration
    compares whole nodes with it, and relies on nodes <= limit before it
    spends."""

    __slots__ = ("context", "limit", "nodes", "count")

    def __init__(self, context: str, limit: int | None):
        if limit is not None and not _is_int(limit):
            raise ValueError(f"node_budget must be an int, got {limit!r} in {context}")
        if limit is not None and limit < 0:
            raise ValueError(f"node_budget must be >= 0, got {limit} in {context}")
        self.context = context
        self.limit = DEFAULT_NODE_BUDGET if limit is None else limit
        self.nodes = 0
        self.count = 0

    def spend(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise ResourceLimitError(self.context, self.nodes, self.limit, self.count)

    def spend_batch(self, k: int, count: int) -> bool:
        """Spend k nodes and count count at once, if the k nodes fit in
        what is left; otherwise change nothing and return False, so the
        caller can take the nodes one at a time and overrun exactly."""
        if k > self.limit - self.nodes:
            return False
        self.nodes += k
        self.count += count
        return True


def _is_int(value) -> bool:
    """Whether value is an int and not a bool."""
    return isinstance(value, int) and type(value) is not bool


def require_integers(caller: str, **values) -> None:
    """ValueError naming the first of the keyword arguments that is not an
    int (3.0 and True are refused)."""
    require_at_least(caller, -math.inf, **values)


def require_at_least(caller: str, least: float, **values) -> None:
    """ValueError naming the first of the keyword arguments that is not an
    int (3.0 and True are refused) or is below least."""
    for arg, value in values.items():
        if not _is_int(value):
            raise ValueError(f"{caller} requires an integer {arg}, got {value!r}")
        if value < least:
            raise ValueError(f"{caller} requires {arg} >= {least}, got {arg}={value}")


def require_flag(caller: str, **values) -> None:
    """ValueError naming the first of the keyword arguments that is not a
    bool: a flag picks a branch, so 0, 'no' and None are refused rather
    than taken for their truth."""
    for arg, value in values.items():
        if type(value) is not bool:
            raise ValueError(f"{caller} requires {arg} to be a bool, got {value!r}")


def require_sequence(caller: str, arg: str, value) -> tuple:
    """value as a tuple, with a ValueError naming arg where it is not a
    sequence (a scalar such as 3)."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{caller} requires {arg} to be a sequence, got {value!r}") from None


def require_instance(caller: str, arg: str, value, kind: type) -> None:
    """ValueError naming arg unless value is an instance of kind."""
    if not isinstance(value, kind):
        raise ValueError(f"{caller} requires {arg} of type {kind.__name__}, got {value!r}")


def require_real(caller: str, s) -> None:
    """ValueError naming s unless it is an int (not a bool), a finite
    float or a Fraction: the real s that the zeta and bound functions
    take exactly.  A str, None, NaN and the infinities are refused."""
    if not (_is_int(s) or isinstance(s, Fraction) or isinstance(s, float) and math.isfinite(s)):
        raise ValueError(
            f"{caller} requires s to be an int, a finite float or a Fraction, got {s!r}"
        )


def require_index(caller: str, n: int, e: int) -> None:
    """The domain of every exponent of f_n(p^e): ints n >= 2, e >= n-1."""
    require_at_least(caller, 2, n=n)
    require_integers(caller, e=e)
    if e < n - 1:
        raise ValueError(f"{caller} needs e >= n-1, got e={e}")


# the primes up to 47: trial divisors, then strong-test bases
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Whether the int n is prime: trial division by the primes up to 47,
    then a strong (Miller-Rabin) test to each of them as a base.

    Exact below 3,317,044,064,679,887,385,961,981, where the bases 2..41
    first admit a strong pseudoprime (Sorenson and Webster, "Strong
    pseudoprimes to twelve prime bases", Math. Comp. 2017).  The bases
    include each witness set of mpmath.libmp.isprime ({2, 3}, {2..17} and
    {3..47}), so above that bound too nothing is accepted that mpmath
    refuses.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    m = n - 1
    s = (m & -m).bit_length() - 1  # m = d * 2^s with d odd
    d = m >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def require_prime(p: int, arg: str = "p") -> None:
    """ValueError naming arg unless p is a prime (an int: 2.0 is
    refused)."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"{arg} must be a prime, got {p!r}")


# count_solutions' check of a hand-built closure system.  It lives here
# rather than in closure because the parse of closure.py sets the peak
# memory of the package's import (see codegen).
def _require_system(system, kind: type) -> None:
    """ValueError naming the first field of system, a closure.ClosureSystem,
    that the solve cannot read; its conditions must be of type kind.
    Extraction's systems pass, so counting does not check them.  Exact
    ints take a fast path: a round of the benchmark's congruence workload
    checks 1,533 ranges, 1,815 conditions and 4,830 terms."""
    ranges, conditions = system.variable_ranges, system.conditions
    _require("variable_ranges", ranges, isinstance(ranges, dict) and all(
        type(v) is tuple and len(v) == 3 and type(v[0]) is type(v[1]) is type(v[2]) is int
        and (type(r) is int or _is_int(r)) and r >= 0 for v, r in ranges.items()))
    _require("conditions", conditions, isinstance(conditions, Sequence) and all(
        isinstance(cond, kind) for cond in conditions))
    for cond in conditions:
        r = cond.modulus_exponent
        _require("modulus_exponent", r, (type(r) is int or _is_int(r)) and r >= 0)
        _require("numerator", cond.numerator, _is_numerator(cond.numerator, ranges))


def _is_numerator(numerator, ranges: dict) -> bool:
    """Whether numerator maps each (monomial, k) to an int, each k being an
    int >= 0 and each monomial pairing variables of ranges with int
    degrees >= 1."""
    if not isinstance(numerator, dict):
        return False
    try:
        for (mono, k), c in numerator.items():
            if not (type(k) is type(c) is int or _is_int(k) and _is_int(c)) or k < 0:
                return False
            for v, d in mono:
                if v not in ranges or not (type(d) is int or _is_int(d)) or d < 1:
                    return False
    except (TypeError, ValueError):
        return False
    return True


def _require(field: str, value, ok: bool) -> None:
    """ValueError naming system.field, whose value is value, unless ok."""
    if not ok:
        raise ValueError(f"count_solutions requires a well-formed system.{field}, got {value!r}")
