"""MLPerf-style load generator.

The paper's critique targets industry benchmarks (MLPerf, AI Benchmark)
that "overemphasize ML inference performance". This loadgen runs the
two scenarios MLPerf Mobile scores phones in (Janapa Reddi et al.,
"MLPerf Mobile Inference Benchmark"), so the gap can be quantified
inside one framework:

* **single-stream** — issue the next query as soon as the previous
  completes; report the 90th-percentile latency (the MLPerf metric).
* **offline** — issue all queries at once; report throughput.

Both exercise *inference only* (random inputs, no capture, no app
pipeline), exactly like the benchmarks the paper takes to task, so
comparing their scores against an app's measured latency quantifies the
"missing the forest for the trees" gap. Neither draws arrivals: the
open-loop traffic of :mod:`repro.apps.arrivals` belongs to the service
tier (:mod:`repro.service`).
"""

from dataclasses import dataclass

from repro.android.thread import Work
from repro.apps.sessions import make_session
from repro.core.measurement import percentile
from repro.models import load_model
from repro.processing.costs import random_input_cost_us
from repro.sim import units

SINGLE_STREAM = "single_stream"
OFFLINE = "offline"

SCENARIOS = (SINGLE_STREAM, OFFLINE)


@dataclass(frozen=True)
class LoadgenResult:
    """Scenario score plus the underlying samples."""

    scenario: str
    model_key: str
    dtype: str
    target: str
    query_count: int
    #: MLPerf single-stream metric: 90th-percentile latency (ms).
    p90_latency_ms: float
    mean_latency_ms: float
    #: MLPerf offline metric: queries per second.
    throughput_qps: float


class MlperfLoadgen:
    """Drives an inference session under an MLPerf scenario."""

    def __init__(self, kernel, model_key, dtype="fp32", target="cpu"):
        self.kernel = kernel
        self.model_key = model_key
        self.dtype = dtype
        self.target = target
        self.model = load_model(model_key, dtype)
        self.session = make_session(kernel, self.model, target=target)
        self.latencies_us = []
        self._timed_wall_us = None

    def _sample_work(self):
        return Work(
            random_input_cost_us(self.model.input_spec.numel, self.dtype),
            label="loadgen:sample",
        )

    def _single_stream_body(self, queries):
        yield from self.session.prepare()
        # MLPerf allows untimed warm-up.
        yield from self.session.invoke()
        for _ in range(queries):
            yield self._sample_work()
            duration = yield from self.session.invoke()
            self.latencies_us.append(duration)

    def _offline_body(self, queries):
        yield from self.session.prepare()
        yield from self.session.invoke()
        start_us = self.kernel.now
        for _ in range(queries):
            duration = yield from self.session.invoke()
            self.latencies_us.append(duration)
        self._timed_wall_us = self.kernel.now - start_us

    def run(self, scenario=SINGLE_STREAM, queries=50):
        """Execute the scenario; returns a :class:`LoadgenResult`."""
        # Each run reports its own samples and timed window only.
        self.latencies_us = []
        self._timed_wall_us = None
        if scenario == SINGLE_STREAM:
            body = self._single_stream_body(queries)
        elif scenario == OFFLINE:
            body = self._offline_body(queries)
        else:
            raise ValueError(
                f"unknown scenario {scenario!r}; known: {SCENARIOS}"
            )
        thread = self.kernel.spawn_on_big(body, name=f"loadgen:{scenario}")
        start_us = self.kernel.now
        self.kernel.sim.run(until=thread.done)
        # Offline records its own timed window (prepare and the untimed
        # warm-up must not inflate the denominator); single-stream is
        # timed wall to wall.
        wall_us = (
            self._timed_wall_us
            if self._timed_wall_us is not None
            else self.kernel.now - start_us
        )
        count = len(self.latencies_us)
        mean_us = sum(self.latencies_us) / count
        wall_s = units.to_seconds(wall_us) if wall_us else 0.0
        return LoadgenResult(
            scenario=scenario,
            model_key=self.model_key,
            dtype=self.dtype,
            target=self.target,
            query_count=count,
            p90_latency_ms=units.to_ms(percentile(self.latencies_us, 0.9)),
            mean_latency_ms=units.to_ms(mean_us),
            throughput_qps=count / wall_s if wall_s else 0.0,
        )
