"""Interference daemons, app processes, GC, and binder tests."""

import pytest

from repro.android import AppProcess, Kernel
from repro.android.interference import (
    APP_DAEMONS,
    BENCHMARK_DAEMONS,
    InterferenceProfile,
    start_interference,
)
from repro.android.thread import Work
from repro.sim import Simulator
from repro.soc import make_soc


def make_rig(seed=0):
    sim = Simulator(seed=seed)
    soc = make_soc(sim, "sd845", governor_mode="performance")
    kernel = Kernel(sim, soc, enable_dvfs=False)
    return sim, soc, kernel


def test_profiles():
    app = InterferenceProfile.app()
    assert app.daemons == APP_DAEMONS
    bench = InterferenceProfile.benchmark()
    assert bench.daemons == BENCHMARK_DAEMONS
    assert len(app.daemons) > len(bench.daemons)
    none = InterferenceProfile.none()
    assert none.intensity == 0.0


def test_none_profile_spawns_nothing():
    sim, soc, kernel = make_rig()
    threads = start_interference(kernel, InterferenceProfile.none())
    assert threads == []


def test_daemons_consume_cpu_over_time():
    sim, soc, kernel = make_rig()
    threads = start_interference(kernel, InterferenceProfile.app())
    assert len(threads) == len(APP_DAEMONS)
    sim.run(until=1_000_000)
    consumed = sum(thread.stats.cpu_time_us for thread in threads)
    # Over one second the daemon population burns some milliseconds.
    assert consumed > 2_000
    # ... but nowhere near a full core.
    assert consumed < 300_000


def test_app_interference_heavier_than_benchmark():
    consumed = {}
    for name, profile in (
        ("app", InterferenceProfile.app()),
        ("bench", InterferenceProfile.benchmark()),
    ):
        sim, soc, kernel = make_rig()
        threads = start_interference(kernel, profile)
        sim.run(until=1_000_000)
        consumed[name] = sum(t.stats.cpu_time_us for t in threads)
    assert consumed["app"] > 3 * consumed["bench"]


def test_intensity_scales_bursts():
    consumed = {}
    for intensity in (0.5, 2.0):
        sim, soc, kernel = make_rig()
        threads = start_interference(
            kernel, InterferenceProfile("x", APP_DAEMONS, intensity)
        )
        sim.run(until=1_000_000)
        consumed[intensity] = sum(t.stats.cpu_time_us for t in threads)
    assert consumed[2.0] > 2 * consumed[0.5]


def test_app_process_has_gc_thread():
    sim, soc, kernel = make_rig()
    managed = AppProcess(kernel, "managed", managed_runtime=True)
    unmanaged = AppProcess(kernel, "native", managed_runtime=False)
    assert managed._gc_thread is not None
    assert unmanaged._gc_thread is None
    assert managed.pid != unmanaged.pid


def test_gc_steals_cpu_from_app():
    sim, soc, kernel = make_rig()
    process = AppProcess(kernel, "app", managed_runtime=True)
    sim.run(until=3_000_000)
    assert process._gc_thread.stats.cpu_time_us > 0


def test_process_spawn_names_threads():
    sim, soc, kernel = make_rig()
    process = AppProcess(kernel, "myapp")

    def body():
        yield Work(100)

    thread = process.spawn(body(), "worker")
    assert thread.name == "myapp:worker"
    assert thread.process is process
    assert thread in process.threads
    sim.run(until=thread.done)
