"""Stage-level measurements of pipeline runs."""

import math
from dataclasses import dataclass, field


@dataclass
class PipelineRun:
    """Per-stage latencies (simulated microseconds) of one iteration."""

    capture_us: float = 0.0
    pre_us: float = 0.0
    inference_us: float = 0.0
    post_us: float = 0.0
    #: Anything else attributable to the run (UI, framework glue).
    other_us: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def total_us(self):
        return (
            self.capture_us
            + self.pre_us
            + self.inference_us
            + self.post_us
            + self.other_us
        )

    @property
    def tax_us(self):
        """Non-inference time: the AI tax of this run."""
        return self.total_us - self.inference_us

    @property
    def tax_fraction(self):
        total = self.total_us
        return self.tax_us / total if total > 0 else 0.0


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    index = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(index))
    upper = int(math.ceil(index))
    weight = index - lower
    low_value = sorted_values[lower]
    # a + w*(b-a) is exact when a == b (no float round-off past b).
    return low_value + weight * (sorted_values[upper] - low_value)


def _check_fraction(fraction):
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0,1], got {fraction}")


def percentile(values, fraction):
    """Linear-interpolated percentile of an unsorted sequence.

    Exposed for callers (fleet aggregation) that pool values across
    many collections.
    """
    _check_fraction(fraction)
    return _percentile(sorted(values), fraction)


def percentiles(values, fractions):
    """:func:`percentile` at each of ``fractions``, sorting ``values`` once.

    Returns a tuple in the order of ``fractions``, each element equal
    bit for bit to ``percentile(values, fraction)``.
    """
    for fraction in fractions:
        _check_fraction(fraction)
    ordered = sorted(values)
    return tuple(_percentile(ordered, fraction) for fraction in fractions)


@dataclass
class RunCollection:
    """A set of runs of the same configuration, with statistics."""

    name: str
    runs: list = field(default_factory=list)

    def add(self, run):
        self.runs.append(run)

    def __len__(self):
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def _values(self, attribute):
        return [getattr(run, attribute) for run in self.runs]

    def mean_us(self, attribute="total_us"):
        return _mean(self._values(attribute))

    def mean_run(self):
        """A synthetic run whose stages are the per-stage means."""
        return PipelineRun(
            capture_us=self.mean_us("capture_us"),
            pre_us=self.mean_us("pre_us"),
            inference_us=self.mean_us("inference_us"),
            post_us=self.mean_us("post_us"),
            other_us=self.mean_us("other_us"),
            meta={"n": len(self.runs), "name": self.name},
        )

    def drop_warmup(self, count=1):
        """A new collection without the first ``count`` (cold) runs."""
        return RunCollection(name=self.name, runs=self.runs[count:])
