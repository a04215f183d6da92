"""Golden pin of a traced, faulty backend pool.

``run_service`` discards its trace, so the service golden pins no
counter sample. This test drives a hand-built pool on a traced, sanitized
simulator: two backends with dynamic batchers, a fault plan on backend
0, a breaker per backend, and requests dispatched at fixed simulated
times. It compares the sha256 of the Chrome trace export, the sanitizer
replay digest and the popped-event count with values captured before
the backend loop became a callback state machine.

The run covers a full batch, a deadline flush, a request enqueued at
the very instant its backend's deadline timer pops (so the backend's
wakeup is triggered after the deadline already won), an SSR fault with
its reboot window, a timeout fault, and a breaker opening, half-opening
and closing again. Each is asserted, so the pin cannot silently stop
covering a path.
"""

import hashlib
import json

from repro.analysis.sanitize import collecting
from repro.faults import (
    FAULT_SSR,
    FAULT_TIMEOUT,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.observability import to_chrome_trace
from repro.service.batcher import DynamicBatcher
from repro.service.health import BreakerConfig, HealthMonitor
from repro.service.request import Request
from repro.service.router import Backend, Router
from repro.sim import Simulator, units
from tests.service.test_service import synthetic_pool

CHROME_SHA256 = (
    "8f748df8805a00e20ae9a6e4bf3890b3f8807b3a64a6dc770794570c9cba9635"
)
REPLAY_DIGEST = (
    "9791126874a3ba7d87895a690a5604597ada59230d7eca0970b6ddd23db302ea"
)
EVENTS = 44

#: Backend 0's fault plan, by batch index: its second batch takes an SSR
#: and its fourth a timeout.
FAULTS = (
    FaultSpec(FAULT_SSR, at_call=1),
    FaultSpec(FAULT_TIMEOUT, at_call=3),
)
#: (simulated ms, requests routed then).
ARRIVALS = (
    (0.0, 6),     # two full batches of three
    (5.0, 1),     # queued behind backend 0's batch: takes the SSR
    (40.0, 1),    # backend 0 ejected: a deadline flush on backend 1
    (100.0, 2),   # backend 0 half-open: one probe, one to backend 1
    (160.0, 1),   # backend 0's timeout fault re-opens its breaker
)
#: Backend 1 takes one request here and a second one exactly at that
#: request's deadline, popped after the deadline timer.
AT_DEADLINE_MS = 200.0
MAX_DELAY_MS = 2.0


def run_pool():
    """One traced, sanitized run; returns the run and its fingerprint."""
    with collecting() as collector:
        sim = Simulator(seed=0, trace=True)
        monitor = HealthMonitor(
            sim, [0, 1],
            BreakerConfig(
                failure_threshold=1, recovery_us=units.ms(30.0),
                half_open_probes=1,
            ),
        )
        done = []
        failed = []
        backends = [
            Backend(
                sim,
                profile,
                DynamicBatcher(
                    max_batch=3, max_delay_us=units.ms(MAX_DELAY_MS)
                ),
                done.append,
                injector=(
                    FaultInjector(FaultPlan(specs=FAULTS))
                    if profile.backend_id == 0 else None
                ),
                health=monitor,
                on_failed=lambda request: router.redispatch(request),
                ssr_recovery_us=units.ms(20.0),
            )
            for profile in synthetic_pool()
        ]
        router = Router(sim, backends, health=monitor, on_failed=failed.append)
        requests = []

        def dispatch(count, backend=None):
            def fire(_event):
                for _ in range(count):
                    request = Request(
                        request_id=len(requests), arrival_us=sim.now,
                        slo_us=units.ms(50.0),
                    )
                    requests.append(request)
                    if backend is None:
                        router.dispatch(request)
                    else:
                        backend.enqueue(request)
            return fire

        for at_ms, count in ARRIVALS:
            sim.schedule_callback(units.ms(at_ms), dispatch(count))

        def at_deadline(_event):
            # The second enqueue is scheduled only after the backend has
            # armed its deadline timer, so at the deadline it pops second.
            dispatch(1, backends[1])(None)
            sim.schedule_callback(
                0.0,
                lambda _event: sim.schedule_callback(
                    units.ms(MAX_DELAY_MS), dispatch(1, backends[1])
                ),
            )

        sim.schedule_callback(units.ms(AT_DEADLINE_MS), at_deadline)
        sim.run()
    labels = [
        record.label
        for sanitizer in collector.sanitizers
        for record in sanitizer.stream.records
    ]
    export = json.dumps(to_chrome_trace(sim.trace), sort_keys=True)
    fingerprint = {
        "chrome_sha256": hashlib.sha256(export.encode("utf-8")).hexdigest(),
        "replay": collector.combined_digest(),
        "events": collector.event_count(),
    }
    return (sim, backends, requests, done, failed, labels), fingerprint


def test_traced_pool_covers_every_backend_state():
    (sim, backends, requests, done, failed, labels), _fp = run_pool()
    assert labels.count("service:backend0:ssr_reboot") == 1
    marks = [mark[1] for mark in sim.trace.marks]
    assert marks.count("service:fault:ssr") == 1
    assert marks.count("service:fault:timeout") == 1
    assert marks.count("health:open") == 2
    assert "health:half_open" in marks
    assert "health:closed" in marks
    sizes = [request.batch_size for request in done]
    assert sizes.count(3) == 6 and 1 in sizes
    assert backends[0].failed_batches == 2
    # The request enqueued at the deadline joined the batch it flushed.
    assert [request.batch_size for request in requests[-2:]] == [2, 2]
    assert len(done) + len(failed) == len(requests)
    assert sim.trace.counters["service:depth"][-1][1] == 0


def test_traced_pool_matches_the_pin():
    _run, fingerprint = run_pool()
    assert fingerprint == {
        "chrome_sha256": CHROME_SHA256,
        "replay": REPLAY_DIGEST,
        "events": EVENTS,
    }
