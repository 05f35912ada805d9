"""Summary statistics and span arithmetic used by the benchmark."""

import math
import statistics

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def percentile(samples, p: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank p-th percentile, or None with fewer than `min_beyond` samples beyond it."""
    n = len(samples)
    rank = math.ceil(p / 100.0 * n)
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def median_each(repeats: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over repeats that time the same set of operations."""
    keys = set(repeats[0])
    if any(set(r) != keys for r in repeats):
        raise ValueError("repeats time different operations")
    return {k: statistics.median(r[k] for r in repeats) for k in repeats[0]}


def relative_iqr(samples) -> float:
    """Distance between first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / med


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if a >= b:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(children, start, end)
