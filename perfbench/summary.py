"""Order statistics with their sample counts."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The nearest-rank ``q``-th percentile and how many samples lie
    beyond it.

    A percentile is only worth reporting when enough samples lie beyond
    it: with 100 samples, p90 has 10 above it; with 50, only 5.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
