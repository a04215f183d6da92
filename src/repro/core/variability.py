"""Run-to-run variability statistics (paper Fig. 11).

The paper argues single-number reporting hides the latency
*distribution*: apps vary by as much as 30% from the median while
benchmark loops are tight. These statistics quantify that.
"""

import math
from dataclasses import dataclass

from repro.sim import units


@dataclass(frozen=True)
class VariabilityStats:
    """Distribution statistics over total latency."""

    name: str
    n: int
    mean_ms: float
    median_ms: float
    std_ms: float
    min_ms: float
    max_ms: float
    p5_ms: float
    p95_ms: float
    #: max |x - median| / median over the runs.
    max_deviation_from_median: float
    #: coefficient of variation (std / mean).
    cv: float

    @classmethod
    def from_collection(cls, collection, drop_warmup=1):
        trimmed = collection.drop_warmup(drop_warmup) if drop_warmup else collection
        if len(trimmed) == 0:
            trimmed = collection
        values = sorted(units.to_ms(run.total_us) for run in trimmed)
        if not values:
            raise ValueError(f"no runs in collection {collection.name!r}")
        n = len(values)
        mean = sum(values) / n
        median = values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2
        std = (
            math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
            if n > 1
            else 0.0
        )
        deviation = (
            max(abs(v - median) for v in values) / median if median else 0.0
        )

        def pct(fraction):
            index = min(n - 1, max(0, int(round(fraction * (n - 1)))))
            return values[index]

        return cls(
            name=collection.name,
            n=n,
            mean_ms=mean,
            median_ms=median,
            std_ms=std,
            min_ms=values[0],
            max_ms=values[-1],
            p5_ms=pct(0.05),
            p95_ms=pct(0.95),
            max_deviation_from_median=deviation,
            cv=std / mean if mean else 0.0,
        )


def histogram_of(collection, bins=10, drop_warmup=1):
    """(bin_low_ms, bin_high_ms, count) triples over total latency."""
    trimmed = collection.drop_warmup(drop_warmup) if drop_warmup else collection
    values = sorted(units.to_ms(run.total_us) for run in trimmed)
    if not values:
        return []
    low, high = values[0], values[-1]
    if high == low:
        return [(low, high, len(values))]
    width = (high - low) / bins
    result = []
    for index in range(bins):
        lo = low + index * width
        hi = low + (index + 1) * width
        count = sum(
            1
            for v in values
            if lo <= v < hi or (index == bins - 1 and v == high)
        )
        result.append((lo, hi, count))
    return result
