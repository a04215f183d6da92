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


def test_meter_accumulates_components():
    meter = EnergyMeter()
    sim = Simulator()
    soc = make_soc(sim, "sd845", governor_mode="performance")
    core = soc.big_cores[0]
    added = meter.add_cpu_slice(
        EnergyMeter.core_busy_w(core), 1_000.0, 1.0, label="x"
    )
    assert added == pytest.approx(BIG_CORE_BUSY_W * 1_000.0)
    meter.add_gpu_busy(100.0)
    meter.add_dsp_busy(100.0)
    meter.add_dram_transfer(1_000_000)
    assert meter.total_uj == pytest.approx(
        added + 2.4 * 100 + 0.75 * 100 + 60.0
    )
    assert meter.by_label["x"] == pytest.approx(added)


def test_little_core_cheaper_than_big():
    meter = EnergyMeter()
    sim = Simulator()
    soc = make_soc(sim, "sd845", governor_mode="performance")
    big = meter.add_cpu_slice(
        EnergyMeter.core_busy_w(soc.big_cores[0]), 1_000.0, 1.0
    )
    little = meter.add_cpu_slice(
        EnergyMeter.core_busy_w(soc.little_cores[0]), 1_000.0, 1.0
    )
    assert little == pytest.approx(LITTLE_CORE_BUSY_W * 1_000.0)
    assert big > 4 * little


def test_downclocked_core_draws_cubic_power():
    meter = EnergyMeter()
    sim = Simulator()
    soc = make_soc(sim, "sd845", governor_mode="powersave")
    soc.big_cluster.governor.update(1.0)
    fraction = soc.big_cluster.governor.speed_fraction
    energy = meter.add_cpu_slice(
        EnergyMeter.core_busy_w(soc.big_cores[0]), 1_000.0, fraction
    )
    assert energy == pytest.approx(
        BIG_CORE_BUSY_W * fraction ** 3 * 1_000.0
    )
    assert energy < BIG_CORE_BUSY_W * 1_000.0 * 0.2


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
