"""Per-backend health: circuit breakers, probes, and brownout.

The fault package (PR 3) gave the *device* stack its recovery story —
watchdog timeouts, DSP subsystem restarts, retry policies. This module
gives the *service* tier its own: each backend carries a three-state
circuit breaker fed by its batch outcomes, the router ejects backends
whose breaker is open, a half-open probe window decides when an ejected
backend may rejoin, and a brownout controller degrades execution (the
shed-to-degraded model variant) under sustained overload instead of
letting the queue melt down.

Everything here is driven by **simulated** time and deterministic
failure events (the per-backend :class:`~repro.faults.FaultInjector`
schedules are stateless hashes), so two same-seed runs transition
breakers identically and export byte-identical results — the same
contract as the rest of the service tier.

States
------

``closed``
    Healthy: requests route here normally. ``failure_threshold``
    consecutive batch failures trip the breaker.
``open``
    Ejected from routing. After ``recovery_us`` of simulated time the
    breaker becomes eligible for half-open probing.
``half_open``
    Up to ``half_open_probes`` requests are let through as probes; the
    next batch outcome decides — success closes the breaker, failure
    re-opens it (with a fresh recovery window).
"""

from dataclasses import dataclass

from repro.sim.probes import counter, instant

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"

#: Counter-span encoding of breaker states (``health:backend<N>``).
_STATE_LEVELS = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}


@dataclass(frozen=True)
class BreakerConfig:
    """Tunables of one circuit breaker (shared across the pool)."""

    #: Consecutive batch failures that trip the breaker. The default is
    #: eager (one strike): a failed batch is expensive — it burned a
    #: full service time and re-dispatched its requests — and an SSR'd
    #: backend is guaranteed to be useless for its whole reboot window.
    failure_threshold: int = 1
    #: Simulated µs an open breaker stays ejected before probing.
    recovery_us: float = 100_000.0
    #: Requests admitted as probes while half-open.
    half_open_probes: int = 2

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got "
                f"{self.failure_threshold}"
            )
        if self.recovery_us <= 0:
            raise ValueError(
                f"recovery_us must be > 0, got {self.recovery_us}"
            )
        if self.half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got "
                f"{self.half_open_probes}"
            )


class CircuitBreaker:
    """Closed / open / half-open breaker over one backend's outcomes."""

    def __init__(self, config=None):
        self.config = config or BreakerConfig()
        self.state = STATE_CLOSED
        self.consecutive_failures = 0
        self.opened_at_us = None
        self.probes_in_flight = 0
        #: Lifetime tallies for the health ledger.
        self.failures = 0
        self.successes = 0
        self.opens = 0
        #: Simulated time spent ejected (closed-off to new work).
        self.ejected_us = 0.0

    def allow(self, now_us):
        """Whether the router may send a request here right now.

        Advances ``open -> half_open`` when the recovery window has
        elapsed; in half-open, admits at most ``half_open_probes``
        requests until an outcome arrives.
        """
        if self.state == STATE_CLOSED:
            return True
        if self.state == STATE_OPEN:
            if now_us - self.opened_at_us < self.config.recovery_us:
                return False
            self._transition(STATE_HALF_OPEN, now_us)
        return self.probes_in_flight < self.config.half_open_probes

    def note_dispatch(self, now_us):
        """Record a routed request (counts probes while half-open)."""
        if self.state == STATE_HALF_OPEN:
            self.probes_in_flight += 1

    def record_success(self, now_us):
        """A batch served cleanly: close from half-open, reset strikes."""
        self.successes += 1
        self.consecutive_failures = 0
        if self.state == STATE_HALF_OPEN:
            self._transition(STATE_CLOSED, now_us)

    def record_failure(self, now_us):
        """A batch failed: trip from closed, re-open from half-open."""
        self.failures += 1
        self.consecutive_failures += 1
        if self.state == STATE_HALF_OPEN:
            self._open(now_us)
        elif (
            self.state == STATE_CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self._open(now_us)

    def _open(self, now_us):
        self.opens += 1
        self._transition(STATE_OPEN, now_us)
        self.opened_at_us = now_us

    def _transition(self, state, now_us):
        if self.state == STATE_OPEN and self.opened_at_us is not None:
            self.ejected_us += now_us - self.opened_at_us
        self.state = state
        self.probes_in_flight = 0

    def to_dict(self):
        from repro.sim import units

        return {
            "state": self.state,
            "failures": self.failures,
            "successes": self.successes,
            "opens": self.opens,
            "ejected_ms": units.to_ms(self.ejected_us),
        }


class HealthMonitor:
    """The pool's breakers plus their observability plumbing.

    One :class:`CircuitBreaker` per backend id; the router consults
    :meth:`allow` at dispatch, the backends report batch outcomes, and
    every transition leaves an instant span plus a
    ``health:backend<N>`` counter in the trace (0 closed, 1 half-open,
    2 open) so ejection windows are visible in the same Perfetto
    timeline as the queues they protect.
    """

    def __init__(self, sim, backend_ids, config=None):
        self.sim = sim
        self.config = config or BreakerConfig()
        self.breakers = {
            backend_id: CircuitBreaker(self.config)
            for backend_id in backend_ids
        }

    def allow(self, backend_id):
        breaker = self.breakers[backend_id]
        before = breaker.state
        allowed = breaker.allow(self.sim.now)
        if breaker.state != before:
            self._mark(backend_id, breaker)
        return allowed

    def note_dispatch(self, backend_id):
        self.breakers[backend_id].note_dispatch(self.sim.now)

    def record_success(self, backend_id):
        breaker = self.breakers[backend_id]
        before = breaker.state
        breaker.record_success(self.sim.now)
        if breaker.state != before:
            self._mark(backend_id, breaker)

    def record_failure(self, backend_id):
        breaker = self.breakers[backend_id]
        before = breaker.state
        breaker.record_failure(self.sim.now)
        if breaker.state != before:
            self._mark(backend_id, breaker)

    def _mark(self, backend_id, breaker):
        instant(
            self.sim, f"health:{breaker.state}",
            {"backend": backend_id},
        )
        counter(
            self.sim, f"health:backend{backend_id}",
            _STATE_LEVELS[breaker.state],
        )

    def to_dict(self):
        """Per-backend health ledger, in backend-id order."""
        return [
            dict(backend_id=backend_id, **breaker.to_dict())
            for backend_id, breaker in sorted(self.breakers.items())
        ]


class BrownoutController:
    """Degrade under sustained overload instead of melting down.

    Hysteresis over the pool's outstanding-request count: when it
    reaches ``high`` the service enters brownout and every subsequently
    dispatched request is served by the backend's *degraded* model
    variant (the same distilled/smaller variant the ``shed`` admission
    policy uses); once outstanding falls back to ``low`` the service
    exits. Driven purely by deterministic queue state, so brownout
    windows replay identically.
    """

    def __init__(self, high, low=None):
        if high < 1:
            raise ValueError(f"brownout high watermark must be >= 1, got {high}")
        if low is None:
            low = high // 2
        if not 0 <= low < high:
            raise ValueError(
                f"brownout low watermark must be in [0, high), got "
                f"{low} (high {high})"
            )
        self.high = high
        self.low = low
        self.active = False
        self.episodes = 0
        self.degraded_requests = 0

    def update(self, outstanding, sim=None):
        """Advance the hysteresis; returns whether brownout is active."""
        if not self.active and outstanding >= self.high:
            self.active = True
            self.episodes += 1
            instant(sim, "brownout:enter", {"outstanding": outstanding})
            counter(sim, "service:brownout", 1)
        elif self.active and outstanding <= self.low:
            self.active = False
            instant(sim, "brownout:exit", {"outstanding": outstanding})
            counter(sim, "service:brownout", 0)
        return self.active

    def degrade(self, request):
        """Apply brownout to a dispatched request."""
        if not request.degraded:
            request.degraded = True
            self.degraded_requests += 1

    def to_dict(self):
        return {
            "high": self.high,
            "low": self.low,
            "episodes": self.episodes,
            "degraded_requests": self.degraded_requests,
        }
