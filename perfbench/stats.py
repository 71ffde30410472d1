"""Summary statistics for the benchmark's timing samples.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count.  A
percentile with fewer than ten samples above it rests on a handful of
outliers and would change from run to run on its own.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(n: int) -> Optional[float]:
    """The highest nearest-rank percentile of ``n`` samples that has at
    least :data:`TAIL_MIN_BEYOND` samples beyond it: rank ``n - 10``,
    i.e. ``100 * (n - 10) / n``.  None when that would not lie above
    the median (fewer than 21 samples)."""
    rank = n - TAIL_MIN_BEYOND
    if rank <= n // 2:
        return None
    return 100.0 * rank / n


def timing_summary(values: Sequence[float]) -> Dict[str, object]:
    """``{"n", "p50", "tail_pct", "tail"}`` for one timing series;
    ``tail``/``tail_pct`` are None when the series is too short."""
    n = len(values)
    pct = tail_percentile(n)
    return {
        "n": n,
        "p50": median(values) if n else None,
        "tail_pct": pct,
        "tail": (sorted(values)[n - TAIL_MIN_BEYOND - 1]
                 if pct is not None else None),
    }


def iqr_spread(values: Sequence[float]) -> Tuple[float, float]:
    """(median, (Q3 - Q1) / median) as ``statistics.quantiles`` gives the
    quartiles; the spread is the figure the benchmark's bounds refer to."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return mid, (q3 - q1) / mid if mid else float("inf")
