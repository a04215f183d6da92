"""Requests: one unit of offered load, with its SLO and its audit trail.

A :class:`Request` carries the timestamps and per-stage attribution the
service records as the request moves arrival -> admission -> batch ->
backend -> completion. Everything is plain floats in simulated
microseconds, so a finished request serializes to a deterministic dict
and the whole population aggregates into a
:class:`~repro.service.simulate.ServiceResult`.
"""

import math
from dataclasses import dataclass, field

from repro.sim import units

#: Request outcomes.
OUTCOME_PENDING = "pending"
OUTCOME_OK = "ok"
#: Admission queue full, policy ``drop``: silently discarded.
OUTCOME_DROPPED = "dropped"
#: Admission queue full, policy ``reject``: failed fast with an error.
OUTCOME_REJECTED = "rejected"
#: Admitted but every serving attempt failed (backend faults exhausted
#: the redispatch budget).
OUTCOME_FAILED = "failed"

#: SLO-miss attribution buckets (the dominant latency component).
MISS_QUEUEING = "queueing"
MISS_INFERENCE = "inference"
MISS_AI_TAX = "ai_tax"

MISS_BUCKETS = (MISS_QUEUEING, MISS_INFERENCE, MISS_AI_TAX)


@dataclass(slots=True)
class Request:
    """One request: identity, SLO, lifecycle timestamps, attribution."""

    request_id: int
    arrival_us: float
    #: Latency budget; ``inf`` means no SLO (every completion is good).
    slo_us: float = math.inf
    #: Shed-to-degraded admission: served by the backend's degraded
    #: (cheaper) model variant instead of being turned away.
    degraded: bool = False
    outcome: str = OUTCOME_PENDING
    #: Times this request was re-routed after a backend batch failed.
    redispatches: int = 0
    backend_id: int = None
    #: Size of the batch this request was served in.
    batch_size: int = 0
    #: When the backend started serving the batch.
    start_us: float = None
    done_us: float = None
    #: Attributed latency components (µs): time not spent on this
    #: request's own work (admission wait, batch formation, and batch
    #: mates' service share) ...
    queue_us: float = 0.0
    #: ... this request's share of the batch's inference compute ...
    inference_us: float = 0.0
    #: ... and its non-inference service work (pre/post/glue): the AI
    #: tax, which batching does not amortize.
    tax_us: float = 0.0

    @property
    def completed(self):
        return self.outcome == OUTCOME_OK

    @property
    def latency_us(self):
        """Arrival-to-completion latency; ``None`` until completed."""
        if self.done_us is None:
            return None
        return self.done_us - self.arrival_us

    @property
    def met_slo(self):
        """Whether the request completed within its latency budget."""
        latency_us = self.latency_us
        return latency_us is not None and latency_us <= self.slo_us

    def miss_attribution(self):
        """Dominant latency component of an SLO miss.

        Only meaningful for completed requests that missed; returns one
        of :data:`MISS_BUCKETS` (ties break toward the earlier stage:
        queueing before inference before tax, matching the order the
        time was actually spent).
        """
        components = (
            (MISS_QUEUEING, self.queue_us),
            (MISS_INFERENCE, self.inference_us),
            (MISS_AI_TAX, self.tax_us),
        )
        best, best_us = components[0]
        for name, value_us in components[1:]:
            if value_us > best_us:
                best, best_us = name, value_us
        return best

    def to_dict(self):
        """JSON-able form (sorted keys happen at dump time)."""
        return {
            "request_id": self.request_id,
            "arrival_ms": units.to_ms(self.arrival_us),
            "slo_ms": (
                None if math.isinf(self.slo_us)
                else units.to_ms(self.slo_us)
            ),
            "outcome": self.outcome,
            "degraded": self.degraded,
            "redispatches": self.redispatches,
            "backend_id": self.backend_id,
            "batch_size": self.batch_size,
            "latency_ms": (
                None if self.latency_us is None
                else units.to_ms(self.latency_us)
            ),
            "queue_ms": units.to_ms(self.queue_us),
            "inference_ms": units.to_ms(self.inference_us),
            "tax_ms": units.to_ms(self.tax_us),
            "met_slo": self.met_slo,
        }
