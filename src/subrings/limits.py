"""Node budgets and the argument checks shared by the counting modules.

A leaf module: counting, closure and subgroups all import it, and it
imports none of them.
"""

from __future__ import annotations

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
        if limit is not None and (type(limit) is bool or not isinstance(limit, int)):
            raise ValueError(f"node_budget must be an int, got {limit!r} in {context}")
        if limit is not None and limit < 0:
            raise ValueError(f"node_budget must be >= 0, got {limit} in {context}")
        self.context = context
        self.limit = DEFAULT_NODE_BUDGET if limit is None else limit
        self.nodes = 0
        self.count = 0

    def spend(self, k: int = 1):
        self.nodes += k
        if self.nodes > self.limit:
            raise ResourceLimitError(self.context, self.nodes, self.limit, self.count)

    def spend_leaves(self, k: int):
        """k leaves of one node each, spent and counted at once: the same
        nodes, count and overrun as k calls of spend() each followed by
        count += 1.  Needs nodes <= limit on entry, as after any spend()."""
        room = self.limit - self.nodes
        if k > room:
            self.nodes = self.limit + 1
            self.count += room
            raise ResourceLimitError(self.context, self.nodes, self.limit, self.count)
        self.nodes += k
        self.count += k

    def spend_batch(self, k: int, count: int) -> bool:
        """Spend k nodes and count count at once, if the k nodes fit in
        what is left; otherwise change nothing and return False, so the
        caller can take the nodes one at a time and overrun exactly."""
        if k > self.limit - self.nodes:
            return False
        self.nodes += k
        self.count += count
        return True


def require_integers(caller: str, **values) -> None:
    """ValueError naming the first of the keyword arguments that is not an
    int (3.0 is refused)."""
    for arg, value in values.items():
        if not isinstance(value, int):
            raise ValueError(f"{caller} requires an integer {arg}, got {value!r}")


def require_prime(p: int) -> None:
    """ValueError unless p is a prime (an int: 2.0 is refused)."""
    # imported on first use: importing mpmath here, in the middle of the
    # package's own imports rather than with zeta, raises the process's
    # peak RSS by about 1 MiB
    from mpmath.libmp import isprime

    if not isinstance(p, int) or not isprime(p):
        raise ValueError(f"p must be a prime, got {p!r}")
