"""The host's speed, sampled next to every measured interpreter.

On a shared two-vCPU virtual machine (Intel Xeon, Python 3.11) the speed
of the cores drifts: one fixed query took between 0.40 s and 0.78 s of CPU
time in back-to-back calls, and over a few minutes the untraced round
times of one workload rose from 1.6 s to 2.7 s.  CPU time drifts as much
as wall time, so the cause is the cores' speed, not time stolen from the
process.  A fixed pure-Python kernel of the same kind of work as the
library (small integers, tuples, dict and list traffic) slows down and
speeds up with it.

Every child times the kernel right after its set-up and again right after
its last query, outside both measured intervals, with garbage collection
off.  The parent then scales the child's set-up and wall times to the speed
at which the kernel takes ``REFERENCE_S``.  The kernel runs in the child
because the two cores of one machine can be in different spells; it shares
no code or data with the library.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.025  # the kernel's typical median on the tuning host (Python 3.11)
SAMPLES = 3  # kernel runs per burst


def kernel(n: int = 40000) -> int:
    seen: dict[tuple, int] = {}
    acc = 0
    row: list[int] = []
    for i in range(n):
        t = (i % 31, (i * i) % 29, i // 7)  # at most 899 keys: no peak-memory bump
        k = seen.get(t[:2])
        if k is None:
            seen[t[:2]] = i
        else:
            acc += (k * t[2]) % 1009
        row.append(t[0] - t[1])
        if len(row) > 64:
            row = row[32:]
    return acc + sum(row)


def burst() -> list[float]:
    """SAMPLES timings of the kernel, in seconds."""
    out = []
    gc.disable()
    try:
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return out


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured at the sampled speed into one at
    the reference speed (below 1 on a slow spell)."""
    return REFERENCE_S / statistics.median(samples)
