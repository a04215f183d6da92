"""Energy model tests."""

import pytest

from repro.android import Kernel
from repro.android.thread import Work
from repro.apps.sessions import make_session
from repro.models import load_model
from repro.sim import Simulator
from repro.soc import make_soc
from repro.soc.power import (
    BIG_CORE_BUSY_W,
    EnergyMeter,
    LITTLE_CORE_BUSY_W,
    idle_floor_uj,
)


def make_rig(seed=0, governor="performance"):
    sim = Simulator(seed=seed)
    soc = make_soc(sim, "sd845", governor_mode=governor)
    kernel = Kernel(sim, soc, enable_dvfs=(governor == "schedutil"))
    return sim, soc, kernel


def run_session(target, dtype, invokes=10, model_key="mobilenet_v1"):
    sim, soc, kernel = make_rig()
    model = load_model(model_key, dtype)
    session = make_session(kernel, model, target=target)
    durations = []

    def body():
        yield from session.prepare()
        for _ in range(invokes):
            duration = yield from session.invoke()
            durations.append(duration)

    thread = kernel.spawn_on_big(body(), name="driver")
    snapshot = soc.energy.snapshot()
    sim.run(until=thread.done)
    return soc.energy.since(snapshot), durations


def run_work(cores, governor="performance", work_us=1_000.0, label="x"):
    """One ``Work`` item on ``cores`` ("big" or "little"), run to the end.

    The rig runs no other thread, so every slice the meter books is the
    worker's. Returns the SoC and the worker thread.
    """
    sim, soc, kernel = make_rig(governor=governor)
    group = soc.big_cores if cores == "big" else soc.little_cores

    def body():
        yield Work(work_us, label=label)

    worker = kernel.spawn(
        body(), name="worker", affinity={core.core_id for core in group}
    )
    sim.run(until=worker.done)
    return soc, worker


def test_meter_accumulates_components():
    soc, worker = run_work("big")
    meter = soc.energy
    busy_us = worker.stats.cpu_time_us
    assert busy_us > 0
    assert meter.cpu_uj == pytest.approx(BIG_CORE_BUSY_W * busy_us)
    assert meter.by_label == {"x": meter.cpu_uj}
    cpu = meter.cpu_uj
    meter.add_gpu_busy(100.0)
    meter.add_dsp_busy(100.0)
    meter.add_dram_transfer(1_000_000)
    assert meter.total_uj == pytest.approx(
        cpu + 2.4 * 100 + 0.75 * 100 + 60.0
    )


def test_little_core_cheaper_than_big():
    big_soc, big_worker = run_work("big")
    little_soc, little_worker = run_work("little")
    assert EnergyMeter.core_busy_watts(big_soc.big_cores[0]) == (
        BIG_CORE_BUSY_W
    )
    assert EnergyMeter.core_busy_watts(little_soc.little_cores[0]) == (
        LITTLE_CORE_BUSY_W
    )
    big_watts = big_soc.energy.cpu_uj / big_worker.stats.cpu_time_us
    little_watts = (
        little_soc.energy.cpu_uj / little_worker.stats.cpu_time_us
    )
    assert little_watts == pytest.approx(LITTLE_CORE_BUSY_W)
    assert big_watts > 4 * little_watts


def test_downclocked_core_draws_cubic_power():
    soc, worker = run_work("big", governor="powersave")
    fraction = soc.big_cluster.governor.speed_fraction
    assert fraction < 1.0
    busy_us = worker.stats.cpu_time_us
    energy = soc.energy.cpu_uj
    assert energy == pytest.approx(BIG_CORE_BUSY_W * fraction ** 3 * busy_us)
    assert energy < BIG_CORE_BUSY_W * busy_us * 0.2


def test_snapshot_and_since():
    meter = EnergyMeter()
    meter.add_gpu_busy(10.0)
    snapshot = meter.snapshot()
    meter.add_gpu_busy(5.0)
    delta = meter.since(snapshot)
    assert delta["gpu_uj"] == pytest.approx(2.4 * 5.0)
    assert delta["cpu_uj"] == 0.0
    assert delta["total_uj"] == delta["gpu_uj"]


def test_idle_floor():
    assert idle_floor_uj(8, 1_000.0) == pytest.approx(0.015 * 8 * 1_000.0)


def test_cpu_work_is_metered_through_scheduler():
    sim, soc, kernel = make_rig()

    def body():
        yield Work(10_000, label="hot")

    worker = kernel.spawn_on_big(body(), name="worker")
    sim.run(until=worker.done)
    assert soc.energy.cpu_uj == pytest.approx(
        BIG_CORE_BUSY_W * 10_000.0, rel=0.05
    )
    assert "hot" in soc.energy.by_label


def test_dsp_inference_far_more_efficient_than_cpu():
    """Paper §I: general-purpose cores are energy-inefficient for AI."""
    dsp_energy, _ = run_session("hexagon", "int8")
    cpu_energy, _ = run_session("cpu", "int8")
    assert cpu_energy["total_uj"] > 8 * dsp_energy["total_uj"]
    assert dsp_energy["dsp_uj"] > 0.5 * dsp_energy["total_uj"]


def test_offload_moves_energy_between_components():
    dsp_energy, _ = run_session("hexagon", "int8", invokes=5)
    cpu_energy, _ = run_session("cpu", "int8", invokes=5)
    assert cpu_energy["dsp_uj"] == 0.0
    assert dsp_energy["cpu_uj"] < 0.1 * cpu_energy["cpu_uj"]
    assert dsp_energy["dram_uj"] > 0  # AXI transfers cost DRAM energy
