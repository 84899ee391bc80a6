"""Partitions (types of finite abelian p-groups) and compositions
(diagonals of irreducible subring matrices)."""

from __future__ import annotations

from math import comb
from typing import Iterator, Sequence


class Partition:
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(parts)
        if any(x < 1 for x in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        self.parts = parts

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        other_parts = other.parts if isinstance(other, Partition) else tuple(other)
        return self.parts == other_parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def part(self, j: int) -> int:
        """1-based part access, 0 beyond the length (handy in product formulas)."""
        return self.parts[j - 1] if 1 <= j <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram: part j of the conjugate counts
        the parts of self that are >= j."""
        if not self.parts:
            return Partition()
        width = self.parts[0]
        out = [0] * width
        for v in self.parts:
            for j in range(v):
                out[j] += 1
        return Partition(out)

    def contains(self, other: "Partition") -> bool:
        """Componentwise containment other <= self."""
        return all(other.part(j) <= self.part(j) for j in range(1, len(other) + 1))


def partitions_of(
    k: int, max_part: int | None = None, max_length: int | None = None
) -> Iterator[Partition]:
    """All partitions of k, with the part-size and length bounds enforced
    during generation rather than filtered afterwards."""
    if k < 0:
        return
    cap = k if max_part is None else min(max_part, k)
    room = k if max_length is None else max_length

    def rec(remaining, largest, length_left, prefix):
        if remaining == 0:
            yield Partition(prefix)
            return
        if length_left == 0:
            return
        for first in range(min(largest, remaining), 0, -1):
            # even filled with `first` repeatedly, the rest must fit
            if first * length_left < remaining:
                break
            yield from rec(remaining - first, first, length_left - 1, prefix + [first])

    if k == 0:
        yield Partition()
        return
    yield from rec(k, cap, room, [])


class Composition:
    """Ordered tuple of positive integers: the diagonal exponents
    (e_1, ..., e_(n-1)) of an irreducible subring matrix."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        parts = tuple(parts)
        if any(not isinstance(x, int) or x < 1 for x in parts):
            raise ValueError(f"composition parts must be integers >= 1: {parts}")
        self.parts = parts

    @property
    def e(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        other_parts = other.parts if isinstance(other, Composition) else tuple(other)
        return self.parts == other_parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Composition{self.parts}"


def compositions(n: int, e: int) -> Iterator[Composition]:
    """Every composition of e into exactly n-1 positive parts, in
    lexicographic order.  Empty stream when e < n-1."""
    if n < 2:
        raise ValueError("compositions requires n >= 2")
    parts = n - 1

    def rec(remaining, slots, prefix):
        if slots == 1:
            if remaining >= 1:
                yield Composition(prefix + [remaining])
            return
        for first in range(1, remaining - slots + 2):
            yield from rec(remaining - first, slots - 1, prefix + [first])

    if e < parts:
        return
    yield from rec(e, parts, [])


def composition_count(n: int, e: int) -> int:
    """binomial(e-1, n-2) compositions of e into n-1 positive parts."""
    if e < n - 1:
        return 0
    return comb(e - 1, n - 2)
