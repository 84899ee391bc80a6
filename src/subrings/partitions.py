"""Partitions (types of finite abelian p-groups) and compositions
(diagonals of irreducible subring matrices), as plain tuples of ints.

partition() and composition() check a tuple given from outside and
return it; the generators yield tuples that need no check.  Every
composition, weak or not, is drawn from bounded_compositions.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Sequence

from .limits import _is_int, require_at_least, require_sequence


def partition(parts: Sequence[int]) -> tuple[int, ...]:
    """parts as a tuple, refused unless a sequence of positive and weakly
    decreasing ints."""
    parts = require_sequence("partition", "parts", parts)
    require_at_least("partition", 1, **{f"parts[{i}]": x for i, x in enumerate(parts)})
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def conjugate(lam: Sequence[int]) -> tuple[int, ...]:
    """Transpose of the Young diagram: part j of the conjugate counts the
    parts of lam that are >= j.  Linear in the total of the parts."""
    out = [0] * max(lam, default=0)
    for v in lam:
        for j in range(v):
            out[j] += 1
    return tuple(out)


def partitions_of(
    k: int, max_part: int | None = None, max_length: int | None = None
) -> Iterator[tuple[int, ...]]:
    """All partitions of k, with the part-size and length bounds enforced
    during generation rather than filtered afterwards.  k and the bounds
    are ints >= 0, checked at the call, not at the first item."""
    bounds = {"max_part": max_part, "max_length": max_length}
    require_at_least("partitions_of", 0, k=k, **{a: v for a, v in bounds.items() if v is not None})
    cap = k if max_part is None else min(max_part, k)
    room = k if max_length is None else max_length
    return _partitions(k, cap, room, ())


def _partitions(remaining, largest, length_left, prefix):
    if remaining == 0:
        yield prefix
        return
    if length_left == 0:
        return
    for first in range(min(largest, remaining), 0, -1):
        # even filled with `first` repeatedly, the rest must fit
        if first * length_left < remaining:
            break
        yield from _partitions(remaining - first, first, length_left - 1, prefix + (first,))


def composition(alpha: Sequence[int]) -> tuple[int, ...]:
    """alpha as a tuple, refused unless a sequence whose every part is an
    int >= 1 (True is refused): the diagonal exponents (e_1, ..., e_(n-1))
    of an irreducible subring matrix."""
    parts = require_sequence("composition", "parts", alpha)
    if any(not _is_int(x) or x < 1 for x in parts):
        raise ValueError(f"composition parts must be integers >= 1: {parts}")
    return parts


def bounded_compositions(total: int, parts: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Tuples of parts integers in [0, cap] summing to total, in
    lexicographic order.  Every branch taken ends in a tuple, so the work
    is bounded by the number of tuples times parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(max(0, total - cap * (parts - 1)), min(cap, total) + 1):
        for rest in bounded_compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def compositions(n: int, e: int) -> Iterator[tuple[int, ...]]:
    """Every composition of e into exactly n-1 positive parts, in
    lexicographic order: the weak compositions of e - (n-1), each part
    shifted up by one, for ints n >= 2 and e >= 0.  Empty stream when
    e < n-1.  The arguments are checked at the call, not at the first
    item."""
    require_at_least("compositions", 2, n=n)
    require_at_least("compositions", 0, e=e)
    slack = e - (n - 1)
    return (tuple([x + 1 for x in weak]) for weak in bounded_compositions(slack, n - 1, slack))


def composition_count(n: int, e: int) -> int:
    """binomial(e-1, n-2) compositions of e into n-1 positive parts, 0
    when e < n-1.  Refuses what compositions refuses."""
    require_at_least("composition_count", 2, n=n)
    require_at_least("composition_count", 0, e=e)
    if e < n - 1:
        return 0
    return comb(e - 1, n - 2)
