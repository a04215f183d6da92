"""Property tests of the service ledger and the pool's load count.

Random synthetic-pool runs over every knob that moves requests in or
out of the pool: offered load, admission policy, batching, batch
faults with and without breakers, SSR storms, brownout, the redispatch
budget and the arrival process. Whatever the config, every offered
request settles exactly once, the outstanding count never goes
negative and drains to zero, and a bounding policy keeps it within the
admission bound. The router's depth list matches a recount from each
backend's queue and serving batch at every change, and every dispatch
picks what a brute-force join-shortest-queue picks from that recount.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ServiceConfig, pool_capacity_rps, run_service
from repro.service.admission import POLICIES, POLICY_SHED
from repro.service.health import STATE_CLOSED, STATE_OPEN
from repro.service.router import Backend, Router
from tests.service.test_service import synthetic_pool

DURATION_S = 0.3


@st.composite
def service_runs(draw):
    profiles = synthetic_pool(
        backends=draw(st.integers(1, 4)),
        inference_us=draw(st.floats(1000.0, 12000.0)),
        tax_us=draw(st.floats(200.0, 4000.0)),
    )
    max_batch = draw(st.integers(1, 8))
    load = draw(st.floats(0.2, 4.0))
    brownout_high = draw(st.none() | st.integers(1, 40))
    storm_ms = draw(st.none() | st.floats(0.0, 1000.0 * DURATION_S))
    config = ServiceConfig(
        rate_rps=load * pool_capacity_rps(profiles, max_batch),
        duration_s=DURATION_S,
        arrivals=draw(st.sampled_from(("poisson", "diurnal"))),
        queue_capacity=draw(st.integers(1, 48)),
        policy=draw(st.sampled_from(POLICIES)),
        max_batch=max_batch,
        max_delay_ms=draw(st.floats(0.0, 10.0)),
        backend_fault_rate=draw(st.sampled_from((0.0, 0.1, 0.3, 0.6))),
        ssr_storm_ms=storm_ms,
        ssr_storm_backends=(
            None if storm_ms is None
            else draw(st.none() | st.integers(1, len(profiles)))
        ),
        ssr_recovery_ms=draw(st.floats(0.0, 100.0)),
        redispatch_limit=draw(st.integers(0, 3)),
        breakers=draw(st.booleans()),
        brownout_high=brownout_high,
        brownout_low=(
            None if brownout_high is None
            else draw(st.integers(0, brownout_high - 1))
        ),
        seed=draw(st.integers(0, 2**16)),
    )
    return config, profiles


@settings(max_examples=50, deadline=None)
@given(run=service_runs())
def test_ledger_balances_and_load_count_drains(run):
    config, profiles = run
    result = run_service(config, profiles=profiles)
    assert result.offered == (
        result.completed + result.failed + result.dropped + result.rejected
    )
    depths = [depth for _time_ms, depth in result.depth_series]
    assert all(depth >= 0 for depth in depths)
    assert not depths or depths[-1] == 0
    if config.policy != POLICY_SHED:
        assert all(depth <= config.queue_capacity for depth in depths)


def recounted_depths(backends):
    """Each backend's depth from its batcher and its serving batch."""
    return [
        len(backend.batcher)
        + (len(backend._serving[0]) if backend._serving else 0)
        for backend in backends
    ]


def would_allow(breaker, now_us):
    """``CircuitBreaker.allow`` without its open -> half-open step."""
    if breaker.state == STATE_CLOSED:
        return True
    probes = breaker.probes_in_flight
    if breaker.state == STATE_OPEN:
        if now_us - breaker.opened_at_us < breaker.config.recovery_us:
            return False
        probes = 0
    return probes < breaker.config.half_open_probes


def brute_force_jsq(router, exclude_id):
    """The pool index a join-shortest-queue scan picks, from recounts."""
    backends = router.backends
    depths = recounted_depths(backends)
    allowed = [
        index for index, backend in enumerate(backends)
        if router.health is None or would_allow(
            router.health.breakers[backend.profile.backend_id],
            router.sim.now,
        )
    ]
    kept = [
        index for index in allowed
        if backends[index].profile.backend_id != exclude_id
    ]
    candidates = kept or allowed or range(len(backends))
    best = None
    for index in candidates:
        if best is None or depths[index] < depths[best]:
            best = index
    return best


class CheckedBackend(Backend):
    """Checks the router's depth list after every change to it."""

    def _count(self, delta):
        super()._count(delta)
        router = self.router
        assert router.depths == recounted_depths(router.backends)
        assert sum(router.depths) == router.outstanding


class CheckedRouter(Router):
    """Checks every dispatch against :func:`brute_force_jsq`."""

    dispatches = 0

    def dispatch(self, request, exclude_id=None):
        expected = brute_force_jsq(self, exclude_id)
        target = super().dispatch(request, exclude_id)
        assert target.index == expected
        CheckedRouter.dispatches += 1
        return target


@settings(max_examples=50, deadline=None)
@given(run=service_runs())
def test_depth_list_matches_recounts_and_brute_force_jsq(run):
    config, profiles = run
    CheckedRouter.dispatches = 0
    with mock.patch("repro.service.simulate.Backend", CheckedBackend), \
            mock.patch("repro.service.simulate.Router", CheckedRouter):
        result = run_service(config, profiles=profiles)
    assert CheckedRouter.dispatches == (
        result.offered - result.dropped - result.rejected
        + result.redispatched
    )
