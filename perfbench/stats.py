"""Arithmetic behind the benchmark's figures; pure Python, no numpy.

Kept apart from the workloads so that the tests can check every rule on
synthetic numbers: medians, the tail-percentile rule, failure ratios,
CPU utilisation, span self time and the run-to-run quartile spread.
"""

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

# Candidate percentiles for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float]
                    ) -> Optional[Tuple[float, float, int]]:
    """Highest percentile with at least TAIL_MIN_BEYOND samples beyond it.

    Uses the nearest-rank percentile: the value at sorted position
    ceil(p/100 * n) - 1, with n - ceil(p/100 * n) samples beyond it.
    Returns (percentile, value, samples_beyond), or None when even the
    median has fewer than TAIL_MIN_BEYOND samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        # the epsilon keeps 99.9% of 10000 at rank 9990 despite rounding
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            return p, float(ordered[rank - 1]), beyond
    return None


def fail_ratio(failed: int, attempted: int) -> float:
    """Failed over attempted; a run that attempted nothing counts as 1.0,
    so that measuring nothing never reads as a clean run."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted}")
    if attempted == 0:
        return 1.0
    return failed / attempted


def cpu_util(cpu_s: float, wall_s: float, nproc: int) -> float:
    """Share of the machine's processors kept busy: cpu / (wall * nproc)."""
    if wall_s <= 0.0:
        raise ValueError(f"wall time must be positive, got {wall_s}")
    if nproc < 1:
        raise ValueError(f"nproc must be >= 1, got {nproc}")
    return cpu_s / (wall_s * nproc)


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float
            ) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the part its direct children cover.

    Spans are given as parallel sequences; parents[i] is the index of
    span i's parent, or -1 for a root span.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    out = []
    for i in range(len(starts)):
        duration = ends[i] - starts[i]
        kids = children.get(i)
        if kids:
            duration -= covered(kids, starts[i], ends[i])
        out.append(duration)
    return out


def quantiles4(values: Sequence[float]) -> List[float]:
    """Q1, Q2 and Q3 as statistics.quantiles(values, n=4) gives them."""
    return statistics.quantiles(values, n=4)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median; 0.0 when every value is the same."""
    q1, _, q3 = quantiles4(values)
    mid = median(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(mid)
