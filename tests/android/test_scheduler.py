"""Scheduler behaviour tests: fairness, affinity, contention, migration."""

import pytest

from repro.android import Kernel, Sleep, WaitFor, Work
from repro.sim import Simulator
from repro.soc import make_soc


def make_kernel(seed=0, trace=False, governor="performance", enable_dvfs=False):
    sim = Simulator(seed=seed, trace=trace)
    soc = make_soc(sim, "sd845", governor_mode=governor)
    kernel = Kernel(sim, soc, enable_dvfs=enable_dvfs)
    return sim, soc, kernel


def burn(amount, label="burn"):
    yield Work(amount, label=label)


def test_single_thread_runs_to_completion():
    sim, soc, kernel = make_kernel()
    thread = kernel.spawn(burn(10_000), name="worker")
    sim.run(until=thread.done)
    assert thread.stats.cpu_time_us == pytest.approx(10_000, rel=0.01)


def test_work_on_little_core_takes_longer():
    sim, soc, kernel = make_kernel()
    big = {core.core_id for core in soc.big_cores}
    little = {core.core_id for core in soc.little_cores}
    fast = kernel.spawn(burn(20_000), name="fast", affinity=big)
    slow = kernel.spawn(burn(20_000), name="slow", affinity=little)
    sim.run(until=sim.all_of([fast.done, slow.done]))
    # Little cores on sd845 have perf_index 0.35 vs 1.0.
    ratio = slow.stats.cpu_time_us / fast.stats.cpu_time_us
    assert ratio == pytest.approx(1.0 / 0.35, rel=0.05)


def test_two_threads_one_core_share_fairly():
    sim, soc, kernel = make_kernel()
    core = soc.big_cores[0].core_id
    first = kernel.spawn(burn(30_000), name="a", affinity={core})
    second = kernel.spawn(burn(30_000), name="b", affinity={core})
    done = sim.all_of([first.done, second.done])
    sim.run(until=done)
    # Serialized on one core: total wall ~ sum of work + switch costs.
    assert sim.now >= 60_000
    # Fair sharing: both finish near the end (neither starves).
    assert first.done.value is None and second.done.value is None
    assert abs(first.stats.cpu_time_us - second.stats.cpu_time_us) < 4_000


def test_four_threads_four_cores_run_parallel():
    sim, soc, kernel = make_kernel()
    big = {core.core_id for core in soc.big_cores}
    threads = [
        kernel.spawn(burn(10_000), name=f"t{i}", affinity=big) for i in range(4)
    ]
    sim.run(until=sim.all_of([thread.done for thread in threads]))
    # All four fit on the big cluster simultaneously.
    assert sim.now < 12_000


def test_contention_slows_wall_clock_linearly():
    durations = []
    for extra in (0, 4):
        sim, soc, kernel = make_kernel()
        big = {core.core_id for core in soc.big_cores}
        for index in range(extra):
            kernel.spawn(burn(1_000_000), name=f"bg{index}", affinity=big)
        subject = kernel.spawn(burn(40_000), name="subject", affinity=big)
        sim.run(until=subject.done)
        durations.append(sim.now)
    # With 4 background hogs on the 4 big cores the subject gets ~4/5 of
    # a core (5 threads over 4 cores), so its wall time stretches ~1.25x.
    assert durations[1] > durations[0] * 1.2


def test_nice_weight_biases_cpu_share():
    sim, soc, kernel = make_kernel()
    core = soc.big_cores[0].core_id
    favored = kernel.spawn(burn(200_000), name="hi", affinity={core}, nice=-5)
    starved = kernel.spawn(burn(200_000), name="lo", affinity={core}, nice=5)
    sim.run(until=200_000)
    assert favored.stats.cpu_time_us > starved.stats.cpu_time_us * 2


def test_sleep_releases_core():
    sim, soc, kernel = make_kernel()
    core = soc.big_cores[0].core_id

    def sleeper():
        yield Work(1_000)
        yield Sleep(50_000)
        yield Work(1_000)

    def worker():
        yield Work(40_000)

    sleepy = kernel.spawn(sleeper(), name="sleepy", affinity={core})
    busy = kernel.spawn(worker(), name="busy", affinity={core})
    sim.run(until=sim.all_of([sleepy.done, busy.done]))
    # The worker must have run during the sleep window, so total wall is
    # far less than strict serialization of sleep + work.
    assert sim.now < 60_000


def test_migrations_counted_and_penalized():
    sim, soc, kernel = make_kernel(trace=True)
    big = list(soc.big_cores)

    def hopper():
        for _ in range(20):
            yield Work(500)
            yield Sleep(1_000)

    # Movable background hogs keep all big cores busy; the hopper rewakes
    # onto whichever core's timeslice ends first, hopping between them.
    big_ids = {core.core_id for core in big}
    for index in range(4):
        kernel.spawn(burn(400_000), name=f"bg{index}", affinity=big_ids)
    thread = kernel.spawn(hopper(), name="hopper", affinity=big_ids)
    sim.run(until=thread.done)
    assert thread.stats.migrations >= 1
    assert sim.trace.counter_total("migration") >= thread.stats.migrations


def test_context_switches_counted():
    sim, soc, kernel = make_kernel(trace=True)
    core = soc.big_cores[0].core_id
    first = kernel.spawn(burn(30_000), name="a", affinity={core})
    second = kernel.spawn(burn(30_000), name="b", affinity={core})
    sim.run(until=sim.all_of([first.done, second.done]))
    # Alternating timeslices on one core -> many switches.
    assert sim.trace.counter_total("ctx_switch") >= 10


def test_waitfor_resumes_with_event_value():
    sim, soc, kernel = make_kernel()
    gate = sim.event()
    results = []

    def waiter():
        value = yield WaitFor(gate)
        results.append(value)
        yield Work(100)

    def opener():
        yield Sleep(5_000)
        gate.succeed("payload")

    thread = kernel.spawn(waiter(), name="waiter")
    kernel.spawn(opener(), name="opener")
    sim.run(until=thread.done)
    assert results == ["payload"]
    assert sim.now > 5_000


def test_thread_done_returns_body_value():
    sim, soc, kernel = make_kernel()

    def body():
        yield Work(100)
        return "finished"

    thread = kernel.spawn(body(), name="returner")
    assert sim.run(until=thread.done) == "finished"


def test_spawn_on_big_sets_affinity():
    sim, soc, kernel = make_kernel()
    thread = kernel.spawn_on_big(burn(1_000), name="bigonly")
    sim.run(until=thread.done)
    big_ids = {core.core_id for core in soc.big_cores}
    assert thread.stats.cores_used <= big_ids


def test_dvfs_ramps_down_when_idle():
    sim, soc, kernel = make_kernel(governor="schedutil", enable_dvfs=True)
    big = soc.big_cluster

    def bursty():
        yield Work(30_000)
        yield Sleep(100_000)
        return big.governor.current_khz

    thread = kernel.spawn_on_big(bursty(), name="bursty")
    freq_after_idle = sim.run(until=thread.done)
    assert freq_after_idle < big.opp.max_khz


def test_performance_governor_stays_at_max():
    sim, soc, kernel = make_kernel(governor="performance", enable_dvfs=True)
    thread = kernel.spawn_on_big(burn(50_000), name="hot")
    sim.run(until=thread.done)
    assert soc.big_cluster.governor.current_khz == soc.big_cluster.opp.max_khz


def test_bad_yield_type_raises():
    sim, soc, kernel = make_kernel()

    def bad():
        yield "not a request"

    with pytest.raises(TypeError, match="expected"):
        kernel.spawn(bad(), name="bad")


@pytest.mark.parametrize(
    "request_type, message",
    [(Work, "negative work: -1.0"), (Sleep, "negative sleep: -1.0")],
)
def test_negative_request_raises(request_type, message):
    with pytest.raises(ValueError, match=message):
        request_type(-1.0)
    request_type(0.0)  # zero is a valid, empty request


def test_deterministic_given_seed():
    finish_times = []
    for _ in range(2):
        sim, soc, kernel = make_kernel(seed=42)
        big = {core.core_id for core in soc.big_cores}
        threads = [
            kernel.spawn(burn(5_000 + 1_000 * i), name=f"t{i}", affinity=big)
            for i in range(6)
        ]
        sim.run(until=sim.all_of([thread.done for thread in threads]))
        finish_times.append(sim.now)
    assert finish_times[0] == finish_times[1]
