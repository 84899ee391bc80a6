"""North-east lattice paths and the two-exponent matrix families.

A path is a plain tuple of steps, each "N" or "E"; a composition is a
plain tuple of ints.  A composition whose parts all equal k or l maps to
a path (north at k, east at l); the number of irreducible matrices in
the associated family is p^((k - ceil(k/2)) * Area), and summing p^Area
over all paths to a fixed endpoint gives a Gaussian binomial.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .hnf import HNFMatrix
from .limits import require_at_least, require_integers, require_prime, require_sequence
from .partitions import composition
from .polyp import PolyP, gaussian_binomial

NORTH = "N"
EAST = "E"


def area(steps: tuple[str, ...]) -> int:
    """Enclosed area, computed as the number of (north, east) inversions:
    pairs i < j with step i north and step j east.  Each east step at
    height h contributes h unit squares under the path.  A step other
    than N or E is refused."""
    height = 0
    total = 0
    for s in require_sequence("area", "steps", steps):
        if s == NORTH:
            height += 1
        elif s == EAST:
            total += height
        else:
            raise ValueError("steps must be 'N' or 'E'")
    return total


def iter_paths(u: int, v: int) -> Iterator[tuple[str, ...]]:
    """All north-east paths from the origin to (u, v), ints >= 0.  The
    arguments are checked when the first path is drawn."""
    require_at_least("iter_paths", 0, u=u, v=v)
    for north in itertools.combinations(range(u + v), v):
        yield tuple(NORTH if i in north else EAST for i in range(u + v))


def path_from_composition(alpha, k: int, l: int) -> tuple[str, ...]:
    """Path with step i north when alpha_i = k and east when alpha_i = l.
    alpha is a composition and k, l are distinct ints >= 1."""
    _require_part_values("path_from_composition", k, l)
    parts = composition(alpha)
    for x in parts:
        if x not in (k, l):
            raise ValueError(f"part {x} is neither {k} nor {l}")
    return tuple(NORTH if x == k else EAST for x in parts)


def two_value_compositions(n: int, d: int, k: int, l: int) -> Iterator[tuple[int, ...]]:
    """All arrangements of d parts k and (n-1-d) parts l.  The arguments
    are checked when the first composition is drawn."""
    require_at_least("two_value_compositions", 1, n=n)
    require_integers("two_value_compositions", d=d)
    _require_part_values("two_value_compositions", k, l)
    if not 0 <= d <= n - 1:
        raise ValueError("d must lie in [0, n-1]")
    for pos in itertools.combinations(range(n - 1), d):
        yield tuple(k if i in pos else l for i in range(n - 1))


def _require_part_values(caller, k, l):
    """ValueError unless the part values k and l, diagonal exponents, are
    distinct ints >= 1."""
    require_at_least(caller, 1, k=k, l=l)
    if k == l:
        raise ValueError("the two part values must differ")


def _family_check(caller, alpha, k, l) -> tuple[str, ...]:
    """The path of alpha, once alpha, k and l are checked to name a
    two-exponent family."""
    _require_part_values(caller, k, l)
    if l < -(-k // 2):
        raise ValueError(f"need l >= ceil(k/2) = {-(-k // 2)}, got l = {l}")
    return path_from_composition(alpha, k, l)


def family_matrices(alpha, k: int, l: int, p: int) -> Iterator[HNFMatrix]:
    """The two-exponent family with diagonal alpha: entry (i, j) runs over
    multiples of p^ceil(k/2) in [0, p^k) when (alpha_i, alpha_j) = (k, l)
    with i < j, every other off-diagonal entry is 0, and the last column is
    all ones.  Every yielded matrix is an irreducible subring matrix."""
    path = _family_check("family_matrices", alpha, k, l)
    require_prime(p)
    half = -(-k // 2)
    m = len(path)
    n = m + 1
    pairs = itertools.combinations(range(m), 2)
    slots = [(i, j) for i, j in pairs if (path[i], path[j]) == (NORTH, EAST)]
    values = range(0, p**k, p**half)
    base = [[0] * n for _ in range(n)]
    for i in range(m):
        base[i][i] = p ** (k if path[i] == NORTH else l)
        base[i][n - 1] = 1
    base[n - 1][n - 1] = 1
    for vals in itertools.product(values, repeat=len(slots)):
        rows = [row[:] for row in base]
        for (i, j), v in zip(slots, vals):
            rows[i][j] = v
        yield HNFMatrix.from_rows(p, rows)


def family_count(alpha, k: int, l: int) -> PolyP:
    """p^((k - ceil(k/2)) * Area(P_alpha)) as a PolyP monomial."""
    path = _family_check("family_count", alpha, k, l)
    return PolyP.monomial((k - (-(-k // 2))) * area(path))


def path_area_identity_check(u: int, v: int, q: int) -> bool:
    """True iff sum over paths to (u, v) of q^Area equals [u+v, v]_p at q,
    for ints u, v >= 0 and an int q."""
    require_at_least("path_area_identity_check", 0, u=u, v=v)
    require_integers("path_area_identity_check", q=q)
    if u + v > 16:
        raise ValueError("u + v > 16 is beyond exhaustive path enumeration")
    total = sum(q ** area(P) for P in iter_paths(u, v))
    return total == gaussian_binomial(u + v, v)(q)
