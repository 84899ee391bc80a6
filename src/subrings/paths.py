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
from .limits import require_integers, require_prime
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
    for s in steps:
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
    require_integers("iter_paths", u=u, v=v)
    if u < 0 or v < 0:
        raise ValueError("endpoint coordinates must be nonnegative")
    for north in itertools.combinations(range(u + v), v):
        yield tuple(NORTH if i in north else EAST for i in range(u + v))


def path_from_composition(alpha, k: int, l: int) -> tuple[str, ...]:
    """Path with step i north when alpha_i = k and east when alpha_i = l.
    alpha is a composition and k, l are ints."""
    require_integers("path_from_composition", k=k, l=l)
    parts = composition(alpha)
    if k == l:
        raise ValueError("the two part values must differ")
    for x in parts:
        if x not in (k, l):
            raise ValueError(f"part {x} is neither {k} nor {l}")
    return tuple(NORTH if x == k else EAST for x in parts)


def two_value_compositions(n: int, d: int, k: int, l: int) -> Iterator[tuple[int, ...]]:
    """All arrangements of d parts k and (n-1-d) parts l.  The arguments
    are checked when the first composition is drawn."""
    require_integers("two_value_compositions", n=n, d=d, k=k, l=l)
    _require_positive_parts("two_value_compositions", k, l)
    if k == l:
        raise ValueError("the two part values must differ")
    if not 0 <= d <= n - 1:
        raise ValueError("d must lie in [0, n-1]")
    for pos in itertools.combinations(range(n - 1), d):
        yield tuple(k if i in pos else l for i in range(n - 1))


def _require_positive_parts(caller, k, l):
    """ValueError unless the part values k and l, diagonal exponents, are
    both >= 1."""
    if k < 1 or l < 1:
        raise ValueError(f"{caller} requires part values k, l >= 1, got k={k}, l={l}")


def _family_check(caller, alpha, k, l) -> tuple[int, ...]:
    """The composition alpha as a tuple, once alpha, k and l are checked
    to name a two-exponent family."""
    require_integers(caller, k=k, l=l)
    _require_positive_parts(caller, k, l)
    if k == l:
        raise ValueError("the two part values must differ")
    if l < -(-k // 2):
        raise ValueError(f"need l >= ceil(k/2) = {-(-k // 2)}, got l = {l}")
    parts = composition(alpha)
    if any(x not in (k, l) for x in parts):
        raise ValueError("every part must equal k or l")
    return parts


def family_matrices(alpha, k: int, l: int, p: int) -> Iterator[HNFMatrix]:
    """The two-exponent family with diagonal alpha: entry (i, j) runs over
    multiples of p^ceil(k/2) in [0, p^k) when (alpha_i, alpha_j) = (k, l)
    with i < j, every other off-diagonal entry is 0, and the last column is
    all ones.  Every yielded matrix is an irreducible subring matrix."""
    parts = _family_check("family_matrices", alpha, k, l)
    require_prime(p)
    half = -(-k // 2)
    m = len(parts)
    n = m + 1
    pairs = itertools.combinations(range(m), 2)
    slots = [(i, j) for i, j in pairs if (parts[i], parts[j]) == (k, l)]
    values = range(0, p**k, p**half)
    base = [[0] * n for _ in range(n)]
    for i in range(m):
        base[i][i] = p ** parts[i]
        base[i][n - 1] = 1
    base[n - 1][n - 1] = 1
    for vals in itertools.product(values, repeat=len(slots)):
        rows = [row[:] for row in base]
        for (i, j), v in zip(slots, vals):
            rows[i][j] = v
        yield HNFMatrix.from_rows(p, rows)


def family_count(alpha, k: int, l: int) -> PolyP:
    """p^((k - ceil(k/2)) * Area(P_alpha)) as a PolyP monomial."""
    parts = _family_check("family_count", alpha, k, l)
    return PolyP.monomial((k - (-(-k // 2))) * area(path_from_composition(parts, k, l)))


def path_area_identity_check(u: int, v: int, q: int) -> bool:
    """True iff sum over paths to (u, v) of q^Area equals [u+v, v]_p at q,
    for ints u, v >= 0 and an int q."""
    require_integers("path_area_identity_check", u=u, v=v, q=q)
    if u < 0 or v < 0:
        raise ValueError("endpoint coordinates must be nonnegative")
    if u + v > 16:
        raise ValueError("u + v > 16 is beyond exhaustive path enumeration")
    total = sum(q ** area(P) for P in iter_paths(u, v))
    return total == gaussian_binomial(u + v, v)(q)
