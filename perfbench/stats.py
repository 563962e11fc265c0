"""Order statistics shared by every workload of the benchmark.

A *tail* is the highest percentile of :data:`TAIL_LADDER` with at least
:data:`TAIL_BEYOND` samples beyond it.  Every workload does a fixed
amount of work for a given ``--seconds``, so its sample counts — and
with them the percentile each tail reports — do not change when the
program gets faster or slower.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    return float(np.percentile(values, pct))


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with ``TAIL_BEYOND`` samples beyond."""
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            chosen = pct
    return chosen


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values))
