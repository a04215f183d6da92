"""The service run loop: offered load in, :class:`ServiceResult` out.

:func:`run_service` wires the subsystem together on one discrete-event
simulator: a deterministic open-loop arrival process drives requests
through bounded admission, join-shortest-queue routing, and per-backend
dynamic batching over a pool calibrated from the device fleet. The
result separates the two numbers the whole tier exists to distinguish:

* **throughput** — completed requests per second, and
* **goodput** — completed requests per second *that met their SLO*,

plus per-percentile latency, SLO-miss attribution (queueing vs
inference vs AI tax), the admission ledger, and the queue-depth time
series. Same config and seed — byte-identical export, always; the
determinism sanitizer (``python -m repro sanitize serve``) holds the
run loop to that.
"""

import hashlib
import json
import math
from array import array
from dataclasses import asdict, dataclass, field

from repro.core import percentiles
from repro.faults import (
    FAULT_SSR,
    FAULT_TIMEOUT,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    derived_seed,
)
from repro.service.admission import (
    POLICY_REJECT,
    TURN_AWAY,
    AdmissionQueue,
    POLICIES,
)
from repro.apps.arrivals import ARRIVAL_KINDS, POISSON, make_arrivals
from repro.service.backends import build_pool
from repro.service.batcher import DynamicBatcher
from repro.service.health import (
    BreakerConfig,
    BrownoutController,
    HealthMonitor,
)
from repro.service.request import MISS_BUCKETS, Request
from repro.service.router import Backend, Router
from repro.sim import Event, Simulator, Timeout, units


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that determines one service run."""

    #: Mean offered load, requests per second.
    rate_rps: float = 200.0
    #: Simulated traffic window, seconds.
    duration_s: float = 1.0
    #: Arrival process: ``poisson`` or ``diurnal``.
    arrivals: str = POISSON
    diurnal_amplitude: float = 0.6
    diurnal_period_s: float = 0.5
    #: Per-request latency budget; ``None`` disables the SLO.
    slo_ms: float = 50.0
    #: Bound on admitted-but-unfinished requests.
    queue_capacity: int = 64
    #: Over-capacity policy: ``drop`` / ``reject`` / ``shed``.
    policy: str = POLICY_REJECT
    #: Dynamic batcher: flush at this many requests ...
    max_batch: int = 4
    #: ... or once the oldest has waited this long.
    max_delay_ms: float = 5.0
    #: Devices expanded from the population into the backend pool.
    devices: int = 4
    #: Per-session iterations when calibrating backend profiles.
    calibration_runs: int = 3
    #: Per-call fault probability during calibration (chaos variant).
    fault_rate: float = 0.0
    #: Per-batch fault probability at each *serving* backend (a faulted
    #: batch burns its service time, completes nothing, and sends its
    #: requests back to the router).
    backend_fault_rate: float = 0.0
    #: Inject an SSR storm: affected backends take a subsystem restart
    #: on their first batch at or after this simulated time (ms).
    ssr_storm_ms: float = None
    #: How many backends (pool order) the storm hits; ``None`` = all.
    ssr_storm_backends: int = None
    #: Reboot window a backend loses after an SSR fault, ms.
    ssr_recovery_ms: float = 80.0
    #: Times a failed request is re-routed before it fails for good.
    redispatch_limit: int = 2
    #: Per-backend circuit breakers (ejected from routing while open).
    breakers: bool = True
    breaker_failure_threshold: int = 1
    breaker_recovery_ms: float = 100.0
    breaker_half_open_probes: int = 2
    #: Brownout watermarks over outstanding requests: enter degraded
    #: execution at ``high``, exit at ``low`` (``None`` disables).
    brownout_high: int = None
    brownout_low: int = None
    seed: int = 0
    trace: bool = False

    def __post_init__(self):
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be > 0, got {self.rate_rps}")
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be > 0, got {self.duration_s}"
            )
        if self.arrivals not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrivals {self.arrivals!r}; "
                f"known: {ARRIVAL_KINDS}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; known: {POLICIES}"
            )
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be > 0, got {self.slo_ms}")
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")
        if not 0.0 <= self.backend_fault_rate <= 1.0:
            raise ValueError(
                f"backend_fault_rate must be in [0, 1], got "
                f"{self.backend_fault_rate}"
            )
        if self.ssr_recovery_ms < 0:
            raise ValueError(
                f"ssr_recovery_ms must be >= 0, got "
                f"{self.ssr_recovery_ms}"
            )
        if self.redispatch_limit < 0:
            raise ValueError(
                f"redispatch_limit must be >= 0, got "
                f"{self.redispatch_limit}"
            )
        if self.ssr_storm_backends is not None and self.ssr_storm_backends < 1:
            raise ValueError(
                f"ssr_storm_backends must be >= 1, got "
                f"{self.ssr_storm_backends}"
            )
        if (self.brownout_high is None) != (self.brownout_low is None):
            if self.brownout_high is None:
                raise ValueError(
                    "brownout_low requires brownout_high"
                )

    @property
    def faulty_backends(self):
        """Whether serving backends can fail under this config."""
        return (
            self.backend_fault_rate > 0.0 or self.ssr_storm_ms is not None
        )

    @property
    def slo_us(self):
        """The latency budget in simulator microseconds (inf = none)."""
        return math.inf if self.slo_ms is None else units.ms(self.slo_ms)

    def to_dict(self):
        return asdict(self)


class _DepthSeries:
    """The pool's outstanding count over one window, as two flat columns.

    A saturated 2 s window takes about 3,000 samples. Each costs 16 bytes
    and no Python object, so a kept result leaves nothing per sample for
    the collector to walk; the ``[time_ms, outstanding]`` pairs are
    rendered only when the series is iterated.
    """

    __slots__ = ("times_us", "counts")

    def __init__(self):
        self.times_us = array("d")
        self.counts = array("q")

    def __len__(self):
        return len(self.counts)

    def __iter__(self):
        return iter([
            [units.to_ms(time_us), count]
            for time_us, count in zip(self.times_us, self.counts)
        ])

    def __eq__(self, other):
        if not isinstance(other, _DepthSeries):
            return NotImplemented
        return self.times_us == other.times_us and self.counts == other.counts


@dataclass
class ServiceResult:
    """Aggregated outcome of one service run (JSON-able, sortable)."""

    config: dict
    backends: list
    #: Calibration sessions that died (chaos shrinks the pool).
    pool_failures: list
    offered: int
    completed: int
    met_slo: int
    dropped: int
    rejected: int
    shed: int
    elapsed_ms: float
    throughput_rps: float
    goodput_rps: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    #: SLO-missed completions by dominant component
    #: (queueing / inference / ai_tax).
    miss_attribution: dict
    #: ``[time_ms, outstanding]`` samples at every dispatch, completion
    #: and terminal failure. Held as two flat typed columns (simulated
    #: µs, outstanding count); iterating or exporting renders the pairs.
    depth_series: _DepthSeries = field(default_factory=_DepthSeries)
    #: Requests that exhausted the redispatch budget.
    failed: int = 0
    #: Successful re-routes after backend batch failures.
    redispatched: int = 0
    #: Per-backend breaker ledger (empty when health is disabled).
    health: list = field(default_factory=list)
    #: Brownout-controller ledger (``None`` when disabled).
    brownout: dict = None

    @property
    def turned_away(self):
        return self.dropped + self.rejected

    @property
    def slo_miss_rate(self):
        """Fraction of *offered* load that got no timely good answer."""
        if not self.offered:
            return 0.0
        return 1.0 - self.met_slo / self.offered

    def to_dict(self):
        return {
            "config": self.config,
            "backends": self.backends,
            "pool_failures": self.pool_failures,
            "offered": self.offered,
            "completed": self.completed,
            "met_slo": self.met_slo,
            "dropped": self.dropped,
            "rejected": self.rejected,
            "shed": self.shed,
            "elapsed_ms": self.elapsed_ms,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "p50_ms": self.p50_ms,
            "p90_ms": self.p90_ms,
            "p99_ms": self.p99_ms,
            "miss_attribution": self.miss_attribution,
            "slo_miss_rate": self.slo_miss_rate,
            "depth_series": list(self.depth_series),
            "failed": self.failed,
            "redispatched": self.redispatched,
            "health": self.health,
            "brownout": self.brownout,
        }

    def to_json(self):
        """Canonical JSON: sorted keys, fixed separators.

        Two same-seed runs must produce byte-identical output — the
        acceptance bar the CI ``service-smoke`` job compares with
        ``cmp``.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self):
        """sha256 of the canonical JSON export."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def write_json(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def render(self):
        """Human-readable summary for the ``serve`` CLI."""
        config = self.config
        slo_ms = config.get("slo_ms")
        lines = [
            (
                f"service: {len(self.backends)} backends "
                f"({len(self.pool_failures)} calibration failures), "
                f"{config['arrivals']} {config['rate_rps']:g} rps for "
                f"{config['duration_s']:g} s (seed {config['seed']})"
            ),
            (
                f"admission: capacity {config['queue_capacity']}, "
                f"policy {config['policy']}; batcher: max "
                f"{config['max_batch']} / {config['max_delay_ms']:g} ms"
            ),
            (
                f"offered {self.offered}  completed {self.completed}  "
                f"rejected {self.rejected}  dropped {self.dropped}  "
                f"shed {self.shed}"
            ),
            (
                f"throughput {self.throughput_rps:.1f} rps   "
                f"goodput {self.goodput_rps:.1f} rps"
                + (
                    f"   ({self.met_slo}/{self.completed} completions "
                    f"met the {slo_ms:g} ms SLO)"
                    if slo_ms is not None and self.completed
                    else "   (no SLO: goodput == throughput)"
                )
            ),
            (
                f"latency: p50 {self.p50_ms:.2f} ms  "
                f"p90 {self.p90_ms:.2f} ms  p99 {self.p99_ms:.2f} ms"
            ),
            (
                "slo misses: "
                + ", ".join(
                    f"{bucket} {self.miss_attribution.get(bucket, 0)}"
                    for bucket in MISS_BUCKETS
                )
                + f", turned away {self.turned_away}"
            ),
        ]
        if self.failed or self.redispatched or self.health:
            opens = sum(entry["opens"] for entry in self.health)
            lines.append(
                f"resilience: failed {self.failed}, redispatched "
                f"{self.redispatched}, breaker opens {opens}"
                + (
                    f", brownout episodes {self.brownout['episodes']} "
                    f"({self.brownout['degraded_requests']} degraded)"
                    if self.brownout else ""
                )
            )
        return "\n".join(lines)


def run_service(config=None, population=None, profiles=None, **overrides):
    """Run one service simulation; returns a :class:`ServiceResult`.

    ``profiles`` short-circuits pool calibration (sweeps reuse one
    calibrated pool across points); otherwise the pool is built from
    ``population`` (default: the paper population) at the config's
    ``fault_rate``. Keyword overrides build a config when none is
    given.
    """
    if config is None:
        config = ServiceConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config or overrides, not both")
    if profiles is None:
        profiles, pool_failures = build_pool(
            population=population,
            devices=config.devices,
            seed=config.seed,
            runs=config.calibration_runs,
            fault_rate=config.fault_rate,
        )
    else:
        pool_failures = []

    sim = Simulator(seed=config.seed, trace=config.trace)
    completed = []
    depth_series = _DepthSeries()
    sample_time = depth_series.times_us.append
    sample_count = depth_series.counts.append

    def on_complete(request):
        completed.append(request)
        sample_time(sim.now)
        sample_count(router.outstanding)
        if brownout is not None:
            brownout.update(router.outstanding, sim)

    def on_request_failed(_request):
        sample_time(sim.now)
        sample_count(router.outstanding)

    def on_batch_failed(request):
        router.redispatch(request)

    # Health plumbing exists only when backends can actually fail, so
    # the fault-free service run loop stays event-for-event identical
    # to a build without this module.
    monitor = None
    brownout = None
    injectors = {}
    if config.faulty_backends:
        storm_ids = set()
        if config.ssr_storm_ms is not None:
            hit = (
                len(profiles) if config.ssr_storm_backends is None
                else min(config.ssr_storm_backends, len(profiles))
            )
            storm_ids = {
                profile.backend_id for profile in profiles[:hit]
            }
        storm = (
            FaultSpec(FAULT_SSR, at_time_us=units.ms(config.ssr_storm_ms)),
        ) if storm_ids else ()
        injectors = {
            profile.backend_id: FaultInjector(FaultPlan(
                specs=storm if profile.backend_id in storm_ids else (),
                rate=config.backend_fault_rate,
                seed=derived_seed(
                    config.seed, f"backend{profile.backend_id}"
                ),
                kinds=(FAULT_TIMEOUT, FAULT_SSR),
            ))
            for profile in profiles
        }
        if config.breakers:
            monitor = HealthMonitor(
                sim,
                [profile.backend_id for profile in profiles],
                BreakerConfig(
                    failure_threshold=config.breaker_failure_threshold,
                    recovery_us=units.ms(config.breaker_recovery_ms),
                    half_open_probes=config.breaker_half_open_probes,
                ),
            )
    if config.brownout_high is not None:
        brownout = BrownoutController(
            config.brownout_high, config.brownout_low
        )

    backends = [
        Backend(
            sim,
            profile,
            DynamicBatcher(
                max_batch=config.max_batch,
                max_delay_us=units.ms(config.max_delay_ms),
            ),
            on_complete,
            injector=injectors.get(profile.backend_id),
            health=monitor,
            on_failed=on_batch_failed,
            ssr_recovery_us=units.ms(config.ssr_recovery_ms),
        )
        for profile in profiles
    ]
    router = Router(
        sim,
        backends,
        health=monitor,
        brownout=brownout,
        redispatch_limit=config.redispatch_limit,
        on_failed=on_request_failed,
    )
    admission = AdmissionQueue(
        capacity=config.queue_capacity, policy=config.policy
    )
    arrivals = make_arrivals(
        config.arrivals,
        config.rate_rps,
        seed=config.seed,
        amplitude=config.diurnal_amplitude,
        period_s=config.diurnal_period_s,
    )
    times_us = arrivals.times_us(
        duration_us=units.seconds(config.duration_s)
    )

    _Driver(
        sim, times_us, config.slo_us, admission, router, depth_series,
    )
    # The result reads the backends, so the pool closes after it. Closing
    # cuts the cycles among router, backends and the callbacks above:
    # the window's simulator, backends and requests are then freed by
    # reference counting when this returns.
    try:
        sim.run()
        return _assemble(
            config, backends, pool_failures, admission, len(times_us),
            completed, depth_series, router=router, monitor=monitor,
            brownout=brownout,
        )
    finally:
        router.close()


class _Driver:
    """Feeds the arrival timeline through admission into the router.

    A callback loop in place of a generator :class:`~repro.sim.Process`
    named ``service:driver``, with the same events: the
    ``service:driver:start`` bootstrap, one ``service:arrival`` timeout
    per wait (one timer, restarted), and, after the last arrival, the
    ``service:driver`` event succeeding where that process did.
    """

    __slots__ = (
        "sim", "times_us", "index", "slo_us", "admission", "router",
        "_sample_time", "_sample_count", "_timer",
    )

    def __init__(self, sim, times_us, slo_us, admission, router,
                 depth_series):
        self.sim = sim
        self.times_us = times_us
        #: The next arrival to admit.
        self.index = 0
        self.slo_us = slo_us
        self.admission = admission
        self.router = router
        self._sample_time = depth_series.times_us.append
        self._sample_count = depth_series.counts.append
        self._timer = None
        sim.bootstrap("service:driver", self._arrive)

    def _arrive(self, event):
        """Admit every arrival due now, then wait for the next one.

        When ``event`` is the timer, the arrival it waited for is due
        without comparing it to the clock again: ``now + (t - now)`` can
        round below ``t``.
        """
        now = self.sim.now
        times_us = self.times_us
        router = self.router
        index = self.index
        due = event is self._timer
        while index < len(times_us):
            if not due and times_us[index] > now:
                self.index = index
                delay = times_us[index] - now
                if self._timer is None:
                    self._timer = Timeout(
                        self.sim, delay, name="service:arrival"
                    )
                    self._timer.callbacks.append(self._arrive)
                else:
                    self._timer.restart(delay, self._arrive)
                return
            due = False
            request = Request(
                request_id=index, arrival_us=now, slo_us=self.slo_us
            )
            index += 1
            decision = self.admission.admit(request, router.outstanding)
            if decision == TURN_AWAY:
                continue
            router.dispatch(request)
            self._sample_time(now)
            self._sample_count(router.outstanding)
        Event(self.sim, name="service:driver").succeed()


def _assemble(config, backends, pool_failures, admission, offered,
              completed, depth_series, router=None, monitor=None,
              brownout=None):
    latencies_ms = []
    met = 0
    misses = {bucket: 0 for bucket in MISS_BUCKETS}
    last_done_us = 0.0
    for request in completed:
        done_us = request.done_us
        latency_us = done_us - request.arrival_us
        latencies_ms.append(units.to_ms(latency_us))
        if latency_us <= request.slo_us:
            met += 1
        else:
            misses[request.miss_attribution()] += 1
        if done_us > last_done_us:
            last_done_us = done_us
    elapsed_us = max(units.seconds(config.duration_s), last_done_us)
    elapsed_s = units.to_seconds(elapsed_us)
    p50_ms, p90_ms, p99_ms = percentiles(latencies_ms, (0.50, 0.90, 0.99))
    counters = admission.counters()
    return ServiceResult(
        config=config.to_dict(),
        backends=[backend.to_dict() for backend in backends],
        pool_failures=pool_failures,
        offered=offered,
        completed=len(completed),
        met_slo=met,
        dropped=counters["dropped"],
        rejected=counters["rejected"],
        shed=counters["shed"],
        elapsed_ms=units.to_ms(elapsed_us),
        throughput_rps=len(completed) / elapsed_s,
        goodput_rps=met / elapsed_s,
        p50_ms=p50_ms,
        p90_ms=p90_ms,
        p99_ms=p99_ms,
        miss_attribution=misses,
        depth_series=depth_series,
        failed=router.failed if router is not None else 0,
        redispatched=router.redispatches if router is not None else 0,
        health=monitor.to_dict() if monitor is not None else [],
        brownout=brownout.to_dict() if brownout is not None else None,
    )
