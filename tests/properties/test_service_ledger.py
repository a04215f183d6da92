"""Property tests of the service ledger and the pool's load count.

Random synthetic-pool runs over every knob that moves requests in or
out of the pool: offered load, admission policy, batching, batch
faults with and without breakers, SSR storms, brownout, the redispatch
budget and the arrival process. Whatever the config, every offered
request settles exactly once, the outstanding count never goes
negative and drains to zero, and a bounding policy keeps it within the
admission bound.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ServiceConfig, pool_capacity_rps, run_service
from repro.service.admission import POLICIES, POLICY_SHED
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
