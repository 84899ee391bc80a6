"""The benchmark's workloads and the seeded query lists drawn from them.

Each workload is a list of slots; each slot is a small pool of tasks of
similar cost.  Every round draws one task per slot and permutes the order,
from the seed and the round number, so rounds send different but equally
heavy query lists.  Every pool member has an entry in ``reference.json``.

Workloads are closed loops with one client: the child process sends its
next query only when the previous answer has been checked.
"""

from __future__ import annotations

import itertools
import random


def compositions(n: int, e: int):
    """Diagonals of irreducible n x n subring matrices of index p^e: the
    (n-1)-part compositions of e, in lexicographic order."""
    for cuts in itertools.combinations(range(1, e), n - 2):
        bounds = (0,) + cuts + (e,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def prime_power(m: int) -> tuple[int, int]:
    """(p, t) with m = p^t."""
    p = next(q for q in range(2, m + 1) if m % q == 0)
    t = 0
    while m % p == 0:
        m //= p
        t += 1
    if m != 1:
        raise ValueError("not a prime power")
    return p, t


def _g(*pool):
    return [{"op": "count_irreducible", "args": list(a)} for a in pool]


def _f(*pool):
    return [{"op": "count_subrings", "args": list(a)} for a in pool]


def _congruence(n, e, primes):
    return [
        [{"op": "congruence", "alpha": list(alpha), "subs": [], "primes": list(primes)}]
        for alpha in compositions(n, e)
    ]


def _subgroup_orders(n, t, p):
    return [[{"op": "subgroup_order", "args": [n, t, k, p]}] for k in range(t * (n - 1) + 1)]


# Rounds are kept to a few seconds at commit 546eb5a (Python 3.11, two
# cores): the host's speed drifts by tens of percent over seconds, so a run
# takes the median of many short rounds rather than of a few long ones.
# Pool members share n and visit about as many scan nodes (within 10 %), so
# they cost about the same.

# g_n(p^e) through the irreducible HNF scan.
IRREDUCIBLE = [
    _g((7, 8, 3), (7, 7, 7)),
    _g((6, 8, 3), (6, 7, 5)),
    _g((5, 9, 3), (5, 6, 13)),
    _g((4, 7, 7), (4, 10, 3)),
]

# f_n(p^e) through the general HNF scan with the derived last column.
TOTAL = [
    _f((6, 6, 2)),
    _f((5, 6, 3)),
    _f((4, 7, 3), (4, 3, 17)),
    _f((3, 6, 7), (3, 4, 19)),
    _f((3, 10, 3), (3, 4, 17)),
]

# One prime-independent extraction per diagonal, solved at every prime that
# shares it; the README's hand-simplified system (a12 -> p*a12') rides along.
CONGRUENCE = (
    _congruence(5, 7, (5, 7))
    + _congruence(8, 10, (2,))
    + _congruence(6, 9, (2,))
    + _congruence(7, 9, (2,))
    + _congruence(6, 8, (3,))
    + [[{"op": "congruence", "alpha": [3, 2, 1, 1], "subs": [[1, 2, 1]], "primes": [5, 7]}]]
)

# Lattice-side oracles: HNF conversion and closure tests in the sandwich
# audit, output-sensitive sublattice enumeration, and one `subrings verify`.
ORACLES = (
    [[{"op": "sandwich", "args": list(a)}] for a in ((4, 16), (5, 4), (5, 5), (6, 3))]
    + _subgroup_orders(7, 1, 3)
    + _subgroup_orders(6, 2, 2)
    + _subgroup_orders(6, 1, 5)
    + [[{"op": "verify"}]]
)

# g and f share one workload: both are the counting module's HNF scan, and
# with three workloads each run can last 42 s while a full set of repeated
# runs of every workload still fits in an hour.  42 s lets a run's median
# ride out the host's slow spells.  The per-layer metrics still separate
# count_by_diagonal (g) from count_subrings (f).
WORKLOADS = {
    "scan": IRREDUCIBLE + TOTAL,
    "congruence": CONGRUENCE,
    "oracles": ORACLES,
}

# A few cheap slots per workload for the benchmark's own smoke test.
TINY = {
    "scan": [_g((4, 5, 3)), _g((3, 4, 2), (3, 4, 3)), _g((5, 6, 2), (5, 6, 3)),
             _f((3, 5, 2), (3, 5, 3)), _f((4, 4, 2))],
    "congruence": _congruence(3, 4, (2, 3)),
    "oracles": [[{"op": "sandwich", "args": [3, 2]}]] + _subgroup_orders(4, 1, 2)
    + [[{"op": "verify"}]],
}


def task_keys(task) -> list[tuple]:
    """The (function, arguments) calls a task makes into the library."""
    op = task["op"]
    if op in ("count_irreducible", "count_subrings"):
        return [(op, tuple(task["args"]))]
    if op == "congruence":
        system = (tuple(task["alpha"]), tuple(map(tuple, task["subs"])))
        return [("extract_conditions", system)] + [
            ("count_solutions", system, p) for p in task["primes"]
        ]
    if op == "subgroup_order":
        n, t, k, p = task["args"]
        return [("brute_force_subgroups", (n, t, k, p)), ("count_subgroups_of_order", (n, t, k))]
    if op == "sandwich":
        return [("sandwich_subring_audit", tuple(task["args"]))]
    if op == "verify":
        return [("cli.main", ("verify",))]
    raise ValueError(f"unknown task op {op!r}")


def check_cold(tasks) -> None:
    """Reject a query list that repeats a call.

    counting keeps per-process memo tables (_F_CACHE, _G_CACHE and
    _GA_CACHE, keyed by (n, e, p) and (alpha, p)).  A repeated call in one
    round would be a dict lookup, not an enumeration, so every round runs
    in a fresh interpreter and no call may repeat within it.
    """
    seen = set()
    for task in tasks:
        for key in task_keys(task):
            if key in seen:
                raise ValueError(f"query list repeats {key}")
            seen.add(key)


def build(workload: str, seed: int, round_index: int, tiny: bool = False) -> list[dict]:
    """The query list of one round: one pool member per slot, then
    shuffled.  A fresh draw per round averages the pools' small cost
    differences within every run."""
    slots = (TINY if tiny else WORKLOADS)[workload]
    rng = random.Random(f"{seed}/{round_index}")
    tasks = [rng.choice(pool) for pool in slots]
    rng.shuffle(tasks)
    check_cold(tasks)
    return tasks
