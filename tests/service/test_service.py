"""End-to-end service runs over synthetic and calibrated pools."""

import pytest

from repro.service import (
    BackendProfile,
    ServiceConfig,
    build_pool,
    pool_capacity_rps,
    run_service,
)


def synthetic_pool(backends=2, inference_us=8000.0, tax_us=2000.0):
    """A hand-built pool: service dynamics without device calibration."""
    return [
        BackendProfile(
            backend_id=index,
            name=f"synthetic#{index}",
            inference_us=inference_us,
            tax_us=tax_us,
        )
        for index in range(backends)
    ]


def run_synthetic(**overrides):
    defaults = dict(rate_rps=150.0, duration_s=0.5, seed=0)
    defaults.update(overrides)
    return run_service(
        ServiceConfig(**defaults), profiles=synthetic_pool()
    )


def test_infinite_slo_makes_goodput_equal_throughput():
    result = run_synthetic(slo_ms=None)
    assert result.completed == result.offered
    assert result.goodput_rps == pytest.approx(result.throughput_rps)
    assert result.slo_miss_rate == 0.0
    assert result.miss_attribution == {
        "queueing": 0, "inference": 0, "ai_tax": 0,
    }


def test_same_seed_exports_byte_identically():
    a = run_synthetic(slo_ms=20.0)
    b = run_synthetic(slo_ms=20.0)
    assert a.to_json() == b.to_json()
    assert a.digest() == b.digest()


def test_different_seed_changes_the_run():
    a = run_synthetic(seed=0)
    b = run_synthetic(seed=1)
    assert a.to_json() != b.to_json()


def test_overload_rejects_and_goodput_collapses():
    capacity = pool_capacity_rps(synthetic_pool(), 4)
    paced = run_synthetic(
        rate_rps=0.5 * capacity, slo_ms=50.0, queue_capacity=32
    )
    swamped = run_synthetic(
        rate_rps=3.0 * capacity, slo_ms=50.0, queue_capacity=32
    )
    assert swamped.rejected > 0
    assert paced.rejected == 0
    # Throughput saturates near capacity; goodput collapses under the
    # queueing delay the open-loop overload builds up.
    assert swamped.goodput_rps < paced.goodput_rps
    assert swamped.slo_miss_rate > paced.slo_miss_rate
    assert swamped.p99_ms > paced.p99_ms
    assert swamped.miss_attribution["queueing"] > 0


def test_shed_policy_serves_degraded_instead_of_rejecting():
    capacity = pool_capacity_rps(synthetic_pool(), 4)
    shed = run_synthetic(
        rate_rps=3.0 * capacity, slo_ms=50.0, queue_capacity=8,
        policy="shed",
    )
    assert shed.rejected == 0
    assert shed.dropped == 0
    assert shed.shed > 0
    # Shed requests are still served (by the degraded variant).
    assert shed.completed == shed.offered


def test_drop_policy_accounts_every_arrival():
    capacity = pool_capacity_rps(synthetic_pool(), 4)
    result = run_synthetic(
        rate_rps=3.0 * capacity, slo_ms=50.0, queue_capacity=8,
        policy="drop",
    )
    assert result.dropped > 0
    assert result.completed + result.dropped == result.offered


def test_diurnal_traffic_runs_and_replays():
    a = run_synthetic(arrivals="diurnal", slo_ms=40.0)
    b = run_synthetic(arrivals="diurnal", slo_ms=40.0)
    assert a.offered > 0
    assert a.to_json() == b.to_json()
    assert a == b


def test_depth_series_is_time_ordered():
    result = run_synthetic()
    times = [sample[0] for sample in result.depth_series]
    assert times == sorted(times)
    assert all(sample[1] >= 0 for sample in result.depth_series)


def test_latency_components_sum_to_latency():
    # White-box: drive the loop directly to inspect request records.
    from repro.service.admission import AdmissionQueue
    from repro.service.batcher import DynamicBatcher
    from repro.service.request import Request
    from repro.service.router import Backend, Router
    from repro.sim import Simulator, units

    sim = Simulator(seed=0)
    done = []
    backend = Backend(
        sim,
        synthetic_pool(backends=1)[0],
        DynamicBatcher(max_batch=4, max_delay_us=units.ms(2.0)),
        done.append,
    )
    router = Router(sim, [backend])
    AdmissionQueue(capacity=16)
    requests = [
        Request(request_id=index, arrival_us=0.0, slo_us=units.ms(50.0))
        for index in range(3)
    ]
    for request in requests:
        router.dispatch(request)
    sim.run()
    assert len(done) == 3
    for request in done:
        assert request.latency_us == pytest.approx(
            request.queue_us + request.inference_us + request.tax_us
        )


def test_pool_depth_track_drains_to_zero_at_the_last_completion():
    # White-box traced run: the pool's ``service:depth`` counter must
    # follow completions down, not stop at the last dispatch.
    from repro.service.batcher import DynamicBatcher
    from repro.service.request import Request
    from repro.service.router import Backend, Router
    from repro.sim import Simulator, units

    sim = Simulator(seed=0, trace=True)
    done = []
    backends = [
        Backend(
            sim,
            profile,
            DynamicBatcher(max_batch=4, max_delay_us=units.ms(2.0)),
            done.append,
        )
        for profile in synthetic_pool()
    ]
    router = Router(sim, backends)
    for index in range(6):
        router.dispatch(Request(request_id=index, arrival_us=0.0))
    sim.run()
    assert len(done) == 6
    last_done_us = max(request.done_us for request in done)
    assert sim.trace.counters["service:depth"][-1] == (last_done_us, 0)


def drive_pool(profiles, arrivals_ms, fault_on=None, breakers=False):
    """Route hand-timed requests through a hand-built pool; log each pick.

    Backends batch up to two requests or 1 ms. Backend ``fault_on``
    times out on its first batch, and with ``breakers`` that one failure
    ejects it for 100 ms. Returns one ``(depths, exclude_id, picked)``
    row per dispatch, redispatches included, where ``depths`` is
    recounted from each backend's batcher and serving batch just before
    the pick and ``picked`` is the chosen pool index.
    """
    from repro.faults import (
        FAULT_TIMEOUT,
        FaultInjector,
        FaultPlan,
        FaultSpec,
    )
    from repro.service.batcher import DynamicBatcher
    from repro.service.health import BreakerConfig, HealthMonitor
    from repro.service.request import Request
    from repro.service.router import Backend, Router
    from repro.sim import Simulator, units

    sim = Simulator(seed=0)
    monitor = HealthMonitor(
        sim, [profile.backend_id for profile in profiles],
        BreakerConfig(recovery_us=units.ms(100.0)),
    ) if breakers else None
    backends = [
        Backend(
            sim,
            profile,
            DynamicBatcher(max_batch=2, max_delay_us=units.ms(1.0)),
            lambda request: None,
            injector=(
                FaultInjector(FaultPlan(
                    specs=(FaultSpec(FAULT_TIMEOUT, at_call=0),),
                ))
                if profile.backend_id == fault_on else None
            ),
            health=monitor,
            on_failed=lambda request: router.redispatch(request),
        )
        for profile in profiles
    ]
    router = Router(sim, backends, health=monitor)
    picks = []
    dispatch = router.dispatch

    def logged(request, exclude_id=None):
        depths = [
            len(backend.batcher)
            + (len(backend._serving[0]) if backend._serving else 0)
            for backend in backends
        ]
        assert router.depths == depths
        target = dispatch(request, exclude_id)
        picks.append((depths, exclude_id, target.index))
        return target

    router.dispatch = logged
    for index, at_ms in enumerate(arrivals_ms):
        sim.schedule_callback(
            units.ms(at_ms),
            lambda _event, index=index: router.dispatch(
                Request(request_id=index, arrival_us=sim.now)
            ),
        )
    sim.run()
    assert router.depths == [0] * len(backends)
    return picks


def test_jsq_tie_after_a_completion_goes_to_the_lowest_index():
    from dataclasses import replace

    slow, fast = synthetic_pool()
    fast = replace(fast, inference_us=4000.0)
    picks = drive_pool([slow, fast], [0.0] * 4 + [5.0] * 2 + [15.0])
    assert picks == [
        ([0, 0], None, 0), ([1, 0], None, 1),
        ([1, 1], None, 0), ([2, 1], None, 1),
        # Both serve a batch of two; the 5 ms arrivals queue behind it.
        ([2, 2], None, 0), ([3, 2], None, 1),
        # Backend 1 finished at 9.4 ms and serves its queued request;
        # backend 0's batch completed at 14.8 ms, tying it at one.
        ([1, 1], None, 0),
    ]


def test_jsq_redispatch_skips_the_failed_backend_and_breaks_ties_low():
    picks = drive_pool(synthetic_pool(backends=3), [0.0] * 3, fault_on=0)
    assert picks == [
        ([0, 0, 0], None, 0), ([1, 0, 0], None, 1), ([1, 1, 0], None, 2),
        # Backend 0's batch timed out at 11 ms: it is the shallowest but
        # failed the request, so the tie between 1 and 2 goes to 1.
        ([0, 1, 1], 0, 1),
    ]


def test_jsq_skips_an_ejected_shallowest_backend():
    picks = drive_pool(
        synthetic_pool(backends=3), [0.0] * 3 + [11.5] * 2,
        fault_on=0, breakers=True,
    )
    assert picks == [
        ([0, 0, 0], None, 0), ([1, 0, 0], None, 1), ([1, 1, 0], None, 2),
        ([0, 1, 1], 0, 1),
        # Backend 0's breaker is open: it ties backend 2 at zero but is
        # not routable, and then ties break among 1 and 2 alone.
        ([0, 1, 0], None, 2), ([0, 1, 1], None, 1),
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(rate_rps=0.0)
    with pytest.raises(ValueError):
        ServiceConfig(arrivals="bursty")
    with pytest.raises(ValueError):
        ServiceConfig(policy="tailshed")
    with pytest.raises(ValueError):
        ServiceConfig(slo_ms=-1.0)
    with pytest.raises(TypeError):
        run_service(ServiceConfig(), rate_rps=10.0)


def test_calibrated_pool_runs_end_to_end():
    result = run_service(
        rate_rps=80.0, duration_s=0.25, devices=2, calibration_runs=2,
        seed=0,
    )
    assert len(result.backends) == 2
    assert result.pool_failures == []
    assert result.completed > 0
    for backend in result.backends:
        assert backend["profile"]["inference_ms"] > 0
        assert backend["profile"]["tax_ms"] >= 0


def test_chaos_faults_shrink_the_pool():
    from repro.fleet.population import chaos_population

    population = chaos_population()
    # Seed 5's expansion puts snpe-dsp (no fault recovery) in the first
    # two devices' slice at index 1/3 — see the chaos experiment.
    healthy, healthy_failures = build_pool(
        population=population, devices=4, seed=5, runs=2, fault_rate=0.0
    )
    faulty, faulty_failures = build_pool(
        population=population, devices=4, seed=5, runs=2, fault_rate=0.9
    )
    assert healthy_failures == []
    assert len(faulty) < len(healthy)
    assert faulty_failures
    for failure in faulty_failures:
        assert failure["target"] == "snpe-dsp"
        assert failure["error"]


def test_pool_with_no_surviving_backend_raises():
    # SNPE-DSP performs no fault recovery, so at fault rate 1 every
    # calibration session fails and there is no pool to serve from.
    from dataclasses import replace

    from repro.fleet import Axis, chaos_population

    population = replace(
        chaos_population(),
        target=Axis("target", (("snpe-dsp", 1.0),)),
        workload=Axis("workload", ((("mobilenet_v1", "int8"), 1.0),)),
    )
    with pytest.raises(
        RuntimeError,
        match="no backend survived calibration: 3 of 3 sessions failed",
    ):
        build_pool(
            population=population, devices=3, seed=0, runs=2,
            fault_rate=1.0,
        )
