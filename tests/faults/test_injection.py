"""Fault injection through the FastRPC channel and runtime recovery."""

import pytest

from repro.android import Kernel
from repro.android.fastrpc import (
    FastRpcChannel,
    FastRpcSessionDeath,
    FastRpcTimeout,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.faults.recovery import fault_counters
from repro.faults.plan import (
    FAULT_SESSION_DEATH,
    FAULT_SSR,
    FAULT_THERMAL,
    FAULT_TIMEOUT,
)
from repro.sim import Simulator
from repro.soc import make_soc


def make_rig(seed=0, trace=False):
    sim = Simulator(seed=seed, trace=trace)
    soc = make_soc(sim, "sd845", governor_mode="performance")
    kernel = Kernel(sim, soc, enable_dvfs=False)
    return sim, soc, kernel


def run_body(sim, kernel, body):
    thread = kernel.spawn_on_big(body, name="caller")
    sim.run(until=thread.done)


def channel_with(kernel, specs, process_id=77, retry_policy=None):
    injector = FaultInjector(FaultPlan(specs=tuple(specs)))
    return FastRpcChannel(
        kernel, process_id=process_id,
        fault_injector=injector, retry_policy=retry_policy,
    )


def test_injected_timeout_raises_and_counts():
    sim, soc, kernel = make_rig()
    channel = channel_with(kernel, [FaultSpec(FAULT_TIMEOUT, at_call=0)])
    outcomes = []

    def body():
        try:
            yield from channel.invoke(10_000, 1_000, dsp_compute_us=500)
        except FastRpcTimeout as exc:
            outcomes.append(str(exc))
        # The session survives a timeout; the next call completes.
        yield from channel.invoke(10_000, 1_000, dsp_compute_us=500)

    run_body(sim, kernel, body())
    assert outcomes and "injected" in outcomes[0]
    assert fault_counters(channel.stats) == {
        "timeout": 1, "ssr": 0, "session_death": 0, "thermal": 0,
    }
    assert channel.stats.stale_handles == 0
    assert channel.stats.calls == 1  # only the completed call counts
    assert soc.dsp.resource.queue_length == 0
    assert soc.dsp.resource.in_use == 0


def test_injected_ssr_drops_all_mappings_and_reopen_pays_remap():
    sim, soc, kernel = make_rig()
    channel = channel_with(kernel, [FaultSpec(FAULT_SSR, at_call=1)])
    bystander = FastRpcChannel(kernel, process_id=88)
    outcomes = []

    def body():
        yield from bystander.open_session()
        yield from channel.invoke(10_000, 1_000, dsp_compute_us=500)
        try:
            yield from channel.invoke(10_000, 1_000, dsp_compute_us=500)
        except FastRpcSessionDeath:
            outcomes.append("ssr")
        # The restart unmapped everyone, the bystander included.
        assert 88 not in soc.dsp.mapped_processes
        # Recovery: the next invoke re-opens and completes.
        yield from channel.invoke(10_000, 1_000, dsp_compute_us=500)

    run_body(sim, kernel, body())
    assert outcomes == ["ssr"]
    assert channel.stats.ssr_events == 1
    assert channel.stats.session_opens == 2  # initial + post-SSR remap
    assert 77 in soc.dsp.mapped_processes


def test_ssr_invalidates_other_channels_stale_handles():
    sim, soc, kernel = make_rig()
    faulty = channel_with(kernel, [FaultSpec(FAULT_SSR, at_call=0)],
                          process_id=1)
    victim = FastRpcChannel(kernel, process_id=2)
    outcomes = []

    def body():
        yield from victim.invoke(10_000, 1_000, dsp_compute_us=500)
        try:
            yield from faulty.invoke(10_000, 1_000, dsp_compute_us=500)
        except FastRpcSessionDeath:
            outcomes.append("ssr")
        # The victim's handle is now stale: its next call fails fast at
        # the ioctl, without touching the DSP.
        try:
            yield from victim.invoke(10_000, 1_000, dsp_compute_us=500)
        except FastRpcSessionDeath:
            outcomes.append("stale")
        # ...and the call after that remaps and completes.
        yield from victim.invoke(10_000, 1_000, dsp_compute_us=500)

    run_body(sim, kernel, body())
    assert outcomes == ["ssr", "stale"]
    assert victim.stats.stale_handles == 1
    assert victim.stats.session_opens == 2


def test_injected_session_death_kills_only_this_channel():
    sim, soc, kernel = make_rig()
    channel = channel_with(kernel,
                           [FaultSpec(FAULT_SESSION_DEATH, at_call=0)])
    bystander = FastRpcChannel(kernel, process_id=88)

    def body():
        yield from bystander.open_session()
        with pytest.raises(FastRpcSessionDeath):
            yield from channel.invoke(10_000, 1_000, dsp_compute_us=500)
        assert 88 in soc.dsp.mapped_processes  # untouched
        yield from channel.invoke(10_000, 1_000, dsp_compute_us=500)

    run_body(sim, kernel, body())
    assert channel.stats.session_deaths == 1
    assert channel.stats.calls == 1


def test_thermal_fault_degrades_without_raising():
    sim, soc, kernel = make_rig()
    channel = channel_with(
        kernel,
        [FaultSpec(FAULT_THERMAL, at_call=0, magnitude=20.0)],
    )
    start_temp = soc.thermal.temperature
    durations = []

    def body():
        for _ in range(2):
            duration = yield from channel.invoke(
                10_000, 1_000, dsp_compute_us=500
            )
            durations.append(duration)

    run_body(sim, kernel, body())
    assert fault_counters(channel.stats) == {
        "timeout": 0, "ssr": 0, "session_death": 0, "thermal": 1,
    }
    assert channel.stats.stale_handles == 0
    assert channel.stats.calls == 2  # both calls completed
    assert soc.thermal.temperature > start_temp


def test_invoke_retrying_recovers_within_policy():
    sim, soc, kernel = make_rig()
    channel = channel_with(
        kernel,
        [FaultSpec(FAULT_TIMEOUT, at_call=0),
         FaultSpec(FAULT_SSR, at_call=1)],
        retry_policy=RetryPolicy(max_retries=2, backoff_us=100.0),
    )
    durations = []

    def body():
        duration = yield from channel.invoke_retrying(
            10_000, 1_000, dsp_compute_us=500
        )
        durations.append(duration)

    run_body(sim, kernel, body())
    assert durations and durations[0] > 0
    assert channel.stats.retries == 2
    assert channel.stats.backoff_us == pytest.approx(100.0 + 200.0)
    assert channel.stats.timeouts == 1
    assert channel.stats.ssr_events == 1
    assert channel.stats.calls == 1


def test_invoke_retrying_exhausts_policy_and_raises():
    sim, soc, kernel = make_rig()
    channel = channel_with(
        kernel,
        [FaultSpec(FAULT_TIMEOUT, at_call=index) for index in range(5)],
        retry_policy=RetryPolicy(max_retries=1, backoff_us=50.0),
    )

    def body():
        with pytest.raises(FastRpcTimeout):
            yield from channel.invoke_retrying(
                10_000, 1_000, dsp_compute_us=500
            )

    run_body(sim, kernel, body())
    assert channel.stats.retries == 1
    assert channel.stats.timeouts == 2  # initial attempt + one retry
    assert channel.stats.calls == 0


def test_fault_spans_and_instants_land_on_the_trace():
    sim, soc, kernel = make_rig(trace=True)
    channel = channel_with(
        kernel,
        [FaultSpec(FAULT_TIMEOUT, at_call=0)],
        retry_policy=RetryPolicy(max_retries=1, backoff_us=100.0),
    )

    def body():
        yield from channel.invoke_retrying(10_000, 1_000, dsp_compute_us=500)

    run_body(sim, kernel, body())
    spans = sim.trace.spans_on("fastrpc")
    statuses = [s.meta.get("status") for s in spans
                if s.label.startswith("invoke:")]
    assert "timeout" in statuses
    assert any(s.label.startswith("retry:") for s in spans)
    marks = [m for m in sim.trace.marks if m[1] == "fault:timeout"]
    assert len(marks) == 1


def test_faulty_channel_timeline_is_deterministic():
    def run_once():
        sim, soc, kernel = make_rig(seed=5)
        channel = FastRpcChannel(
            kernel, process_id=9,
            fault_injector=FaultInjector(FaultPlan.sampled(0.4, seed=5)),
            retry_policy=RetryPolicy(max_retries=2, backoff_us=100.0),
        )
        durations = []

        def body():
            for _ in range(8):
                try:
                    duration = yield from channel.invoke_retrying(
                        10_000, 1_000, dsp_compute_us=500
                    )
                    durations.append(duration)
                except (FastRpcTimeout, FastRpcSessionDeath):
                    durations.append(None)

        run_body(sim, kernel, body())
        return durations, channel.stats

    durations_a, stats_a = run_once()
    durations_b, stats_b = run_once()
    assert durations_a == durations_b
    assert stats_a == stats_b
