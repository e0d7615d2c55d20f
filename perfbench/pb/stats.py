"""Small, dependency-free statistics for the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (a single value is its own quartiles)."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one
    value or a zero median)."""
    q1, q2, q3 = quartiles(values)
    return 0.0 if q2 == 0 else (q3 - q1) / abs(q2)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(samples: int) -> float:
    """The highest percentile of :data:`TAIL_PERCENTILES` that leaves at
    least ten of ``samples`` beyond it; 100 when there are too few
    samples for any."""
    for pct in TAIL_PERCENTILES:
        if samples - math.ceil(pct / 100.0 * samples) >= 10:
            return pct
    return 100.0


def loglog_slope(points: Dict[str, List[Tuple[float, float]]]) -> float:
    """Least-squares slope of ``log(y)`` against ``log(x)`` pooled over
    groups, each group centred on its own means (one intercept per
    group, one shared slope) — e.g. time against roots at several
    fixed depths."""
    sxy = 0.0
    sxx = 0.0
    for group in points.values():
        xs = [math.log(x) for x, _ in group]
        ys = [math.log(y) for _, y in group]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx += sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("a slope needs at least two distinct sizes")
    return sxy / sxx
