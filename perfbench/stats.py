"""Summaries of repeated measurements."""

from __future__ import annotations

import statistics

PER_MILLE = (999, 990, 950, 900, 750, 500)
TAIL_SAMPLES = 10


def nearest_rank(n: int, per_mille: int) -> int:
    """1-based rank of the per_mille/10-th percentile of n samples."""
    return max(1, -(-per_mille * n // 1000))


def tail_percentile(values) -> tuple[float, float] | None:
    """The highest percentile among p99.9, p99, p95, p90, p75 and p50 with
    at least TAIL_SAMPLES samples ranked beyond it, as (percent, value);
    None when there are too few samples for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    for pm in PER_MILLE:
        rank = nearest_rank(n, pm)
        if n - rank >= TAIL_SAMPLES:
            return pm / 10, ordered[rank - 1]
    return None


def summarize(values) -> dict:
    """Median, tail percentile and sample count of one metric."""
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "percentile": None if tail is None else f"p{tail[0]:g}",
        "percentile_value": None if tail is None else tail[1],
        "samples": len(values),
    }
