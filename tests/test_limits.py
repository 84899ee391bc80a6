"""The local primality test, and the package's independence of mpmath.

No module of the package imports mpmath: every entry point checks its
primes with limits.is_prime, which is checked here against mpmath's own
test, and zeta.partial_sum runs on the standard library's decimal.  The
tests keep mpmath as an oracle."""

import json
import os
import random
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import pytest
from mpmath.libmp import isprime as mpmath_isprime

import subrings
from subrings.limits import is_prime

# strong pseudoprimes to the first k prime bases, k = 1..13 (the
# smallest for each k, bar repeats), and two Carmichael numbers
STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
]
CARMICHAEL = [561, 41041]


def test_is_prime_agrees_with_mpmath_below_10_to_the_5():
    disagree = [n for n in range(10**5) if is_prime(n) != mpmath_isprime(n)]
    assert disagree == []


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
def test_is_prime_refuses_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("k", [31, 61, 89, 127])
def test_is_prime_accepts_mersenne_primes(k):
    assert is_prime(2**k - 1)


def test_is_prime_refuses_negatives():
    for n in (-7, -2, -1):
        assert not is_prime(n)


def test_is_prime_accepts_nothing_mpmath_refuses():
    # above 3.3e24 a disagreement could only be a composite that mpmath
    # accepts: every base that mpmath tests is among is_prime's
    rng = random.Random(20261019)
    accepted = 0
    for _ in range(20000):
        n = rng.randrange(1, 10**30, 2)
        if is_prime(n):
            accepted += 1
            assert mpmath_isprime(n), n
    assert accepted > 0


# the entry points of the benchmark's workloads, partial_sum, the CLI's
# --p and verify, all run where importing mpmath raises
_BLOCKED = """
import contextlib, io, json, sys
from dataclasses import astuple
sys.modules["mpmath"] = None
import subrings as S
from subrings import cli

out = {
    "g": S.count_irreducible(4, 4, 3),
    "f": S.count_subrings(4, 4, 3),
    "solutions": S.count_solutions(S.extract_conditions((2, 1, 1)), 5),
    "audit": S.sandwich_subring_audit(3, 4).total_violations,
    "brute": S.brute_force_subgroups(3, 2, 2, 3),
    "interp": str(S.interpolate_count(3, 3, (2, 3, 5), 1)),
    "sums": [astuple(S.partial_sum(3, 2, 1.5, 12)), astuple(S.partial_sum(6, 3, 2.0, 9))],
}
with contextlib.redirect_stdout(io.StringIO()):
    out["count_exit"] = cli.main(["count", "--n", "3", "--e", "2", "--p", "2"])
    out["verify_exit"] = cli.main(["verify"])
print(json.dumps(out))
"""

def _run(code: str):
    src = str(Path(subrings.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_counting_paths_run_without_mpmath():
    out = _run(_BLOCKED)
    assert out == {
        "g": subrings.count_irreducible(4, 4, 3),
        "f": subrings.count_subrings(4, 4, 3),
        "solutions": subrings.count_solutions(subrings.extract_conditions((2, 1, 1)), 5),
        "audit": 0,
        "brute": subrings.brute_force_subgroups(3, 2, 2, 3),
        "interp": str(subrings.interpolate_count(3, 3, (2, 3, 5), 1)),
        "sums": [
            list(astuple(subrings.partial_sum(3, 2, 1.5, 12))),
            list(astuple(subrings.partial_sum(6, 3, 2.0, 9))),
        ],
        "count_exit": 0,
        "verify_exit": 0,
    }
