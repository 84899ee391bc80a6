"""Node budgets, and the argument checks of every public entry point.

Every module checks its arguments with these helpers, once per public
call and never per node; each refusal is a ValueError naming the
argument.  A leaf module: every other module imports it, and it imports
none of them.
"""

from __future__ import annotations

import math
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
