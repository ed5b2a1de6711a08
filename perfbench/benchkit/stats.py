"""Summary statistics and failure accounting for the benchmark.

Timings are reported as a median plus the highest *named* percentile
the sample supports: a percentile gets a name only when at least
``MIN_TAIL`` samples lie beyond it (p90 needs 100 samples, p99 needs
1000).  A tail percentile estimated from fewer samples is mostly noise
and would make a regression gate flap.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

__all__ = [
    "MIN_TAIL",
    "Tally",
    "has_tail",
    "iqr_spread",
    "named_percentiles",
]

#: Samples that must lie beyond a percentile before it may be named.
MIN_TAIL = 10


def has_tail(count: int, q: float) -> bool:
    """True when a sample of ``count`` leaves at least :data:`MIN_TAIL`
    samples beyond its ``q``-th percentile (exact arithmetic, so p99.9
    is not lost to float rounding)."""
    beyond = count * (100 - Fraction(str(q))) / 100
    return beyond >= MIN_TAIL


def named_percentiles(
    values: Sequence[float], candidates: Sequence[float] = (90, 99, 99.9)
) -> dict[str, float]:
    """``{"p50": ..., "pNN": ...}``: the median plus every candidate
    percentile the sample size supports under the :data:`MIN_TAIL` rule."""
    if not values:
        return {}
    named = [50.0] + [q for q in candidates if has_tail(len(values), q)]
    found = np.percentile(np.asarray(values, dtype=np.float64), named)
    return {f"p{q:g}": float(v) for q, v in zip(named, found)}


def iqr_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median, with the
    quartiles :func:`statistics.quantiles` gives (``n=4``)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


class Tally:
    """Operations attempted and failed, with the failure reasons.

    Task failures, admission refusals, exceptions and correctness
    mismatches all count as failures; ``failed_frac`` divides by every
    operation attempted, correctness comparisons included.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, int] = {}

    def ok(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        if n:
            self.attempted += n
            self.failures[reason] = self.failures.get(reason, 0) + n

    def record(self, reason: str, attempted: int, failed: int) -> None:
        """Count ``attempted`` operations, ``failed`` of them under ``reason``."""
        if not 0 <= failed <= attempted:
            raise ValueError("need 0 <= failed <= attempted")
        self.ok(attempted - failed)
        self.fail(reason, failed)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
