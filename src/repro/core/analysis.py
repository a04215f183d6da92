"""AI-tax breakdown analysis."""

from dataclasses import dataclass

from repro.sim import units


@dataclass(frozen=True)
class StageBreakdown:
    """Mean per-stage latency and derived tax metrics for a run set."""

    name: str
    n: int
    capture_ms: float
    pre_ms: float
    inference_ms: float
    post_ms: float
    other_ms: float

    @property
    def total_ms(self):
        return (
            self.capture_ms
            + self.pre_ms
            + self.inference_ms
            + self.post_ms
            + self.other_ms
        )

    @property
    def tax_ms(self):
        return self.total_ms - self.inference_ms

    @property
    def tax_fraction(self):
        return self.tax_ms / self.total_ms if self.total_ms else 0.0

    @property
    def capture_plus_pre_over_inference(self):
        """The Fig.-4b metric: (capture + pre) relative to inference."""
        if self.inference_ms == 0:
            return float("inf")
        return (self.capture_ms + self.pre_ms) / self.inference_ms

    def rows(self):
        """(stage, ms, fraction) rows for reports."""
        total = self.total_ms or 1.0
        entries = [
            ("data_capture", self.capture_ms),
            ("pre_processing", self.pre_ms),
            ("inference", self.inference_ms),
            ("post_processing", self.post_ms),
            ("other", self.other_ms),
        ]
        return [(stage, ms, ms / total) for stage, ms in entries]


def breakdown(collection, drop_warmup=1):
    """Compute a :class:`StageBreakdown` from a :class:`RunCollection`."""
    trimmed = collection.drop_warmup(drop_warmup) if drop_warmup else collection
    if len(trimmed) == 0:
        trimmed = collection
    mean = trimmed.mean_run()
    return StageBreakdown(
        name=collection.name,
        n=len(trimmed),
        capture_ms=units.to_ms(mean.capture_us),
        pre_ms=units.to_ms(mean.pre_us),
        inference_ms=units.to_ms(mean.inference_us),
        post_ms=units.to_ms(mean.post_us),
        other_ms=units.to_ms(mean.other_us),
    )

