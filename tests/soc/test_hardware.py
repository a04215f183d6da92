"""SoC hardware model tests: catalog, devices, DVFS, memory, thermal."""

import pytest

from repro.frameworks import supports_op
from repro.models import conv2d, depthwise_conv2d, load_model
from repro.sim import Simulator, units
from repro.soc import SOC_SPECS, make_soc, soc_spec
from repro.soc.frequency import DvfsGovernor, OppTable


def test_catalog_matches_table2():
    assert set(SOC_SPECS) == {"sd835", "sd845", "sd855", "sd865"}
    pixel3 = soc_spec("sd845")
    assert pixel3.system == "Google Pixel 3"
    assert pixel3.gpu_name == "Adreno 630"
    assert pixel3.dsp_name == "Hexagon 685"
    assert pixel3.core_count == 8


def test_unknown_soc_raises():
    with pytest.raises(KeyError, match="unknown SoC"):
        soc_spec("sd999")


def test_soc_assembly():
    sim = Simulator()
    soc = make_soc(sim, "sd845")
    assert len(soc.cores) == 8
    assert len(soc.big_cores) == 4
    assert soc.big_cores[0].perf_index > soc.little_cores[0].perf_index
    assert soc.core(0).name == "cpu0"


def test_generational_speedup_ordering():
    sim = Simulator()
    op = conv2d("c", (56, 56), 64, 64, 3)
    times = {
        key: make_soc(sim, key).dsp.op_time_us(op, "int8")
        for key in SOC_SPECS
    }
    assert times["sd835"] > times["sd845"] > times["sd855"] > times["sd865"]


def test_dsp_int8_much_faster_than_scalar_fp():
    sim = Simulator()
    soc = make_soc(sim, "sd845")
    op = conv2d("c", (56, 56), 64, 128, 3)
    assert soc.dsp.op_time_us(op, "fp32") > 20 * soc.dsp.op_time_us(op, "int8")
    assert supports_op("hexagon-delegate", op, "int8")
    assert not supports_op("hexagon-delegate", op, "fp32")


def test_depthwise_less_efficient_than_dense():
    sim = Simulator()
    soc = make_soc(sim, "sd845")
    dense = conv2d("dense", (28, 28), 128, 128, 3)
    depthwise = depthwise_conv2d("dw", (28, 28), 128, 3)
    # Per-FLOP cost must be higher for depthwise on both GPU and DSP.
    dense_rate = dense.flops / soc.gpu.op_time_us(dense, "fp32")
    dw_rate = depthwise.flops / soc.gpu.op_time_us(depthwise, "fp32")
    assert dense_rate > dw_rate


def test_gpu_fp16_speedup():
    sim = Simulator()
    soc = make_soc(sim, "sd845")
    op = conv2d("c", (56, 56), 64, 128, 3)
    assert soc.gpu.op_time_us(op, "fp16") < soc.gpu.op_time_us(op, "fp32")


def test_memory_costs_scale_linearly():
    sim = Simulator()
    soc = make_soc(sim, "sd845")
    small = soc.memory.axi_transfer_us(100_000)
    large = soc.memory.axi_transfer_us(1_000_000)
    assert large == pytest.approx(10 * small, rel=0.01)
    flush_small = soc.memory.cache_flush_us(100_000)
    flush_large = soc.memory.cache_flush_us(1_000_000)
    assert flush_large > flush_small
    assert soc.memory.axi_bytes == 1_100_000


def test_opp_table_validation_and_lookup():
    with pytest.raises(ValueError):
        OppTable(())
    with pytest.raises(ValueError):
        OppTable((2_000, 1_000))
    table = OppTable((500, 1_000, 2_000))
    assert table.for_capacity(0.0) == 500
    assert table.for_capacity(0.3) == 1_000
    assert table.for_capacity(1.0) == 2_000
    assert table.step_towards(500, 2_000) == 1_000
    assert table.step_towards(2_000, 500) == 1_000
    assert table.step_towards(1_000, 1_000) == 1_000


def test_schedutil_update_steps_once_towards_the_capacity_level():
    # update() computes for_capacity and step_towards in one frame; it
    # must agree with them, off-table frequencies (snapped to the
    # nearest level, the lower one on a tie) and clamped inputs included.
    table = OppTable((500, 1_000, 2_000))
    for start in (10, 500, 600, 750, 1_000, 1_700, 2_000, 9_000):
        for utilization in (-0.5, 0.0, 0.2, 0.4, 0.5, 0.79, 0.8, 1.0, 3.0):
            governor = DvfsGovernor(table, current_khz=start)
            expected = table.step_towards(
                start, table.for_capacity(utilization * governor.headroom)
            )
            assert governor.update(utilization) == expected
            assert governor.current_khz == expected


def test_governor_modes():
    table = OppTable((500, 1_000, 2_000))
    performance = DvfsGovernor(table, mode="performance")
    assert performance.update(0.0) == 2_000
    powersave = DvfsGovernor(table, mode="powersave")
    assert powersave.update(1.0) == 500
    schedutil = DvfsGovernor(table, mode="schedutil")
    for _ in range(5):
        schedutil.update(1.0)
    assert schedutil.current_khz == 2_000
    for _ in range(5):
        schedutil.update(0.0)
    assert schedutil.current_khz == 500
    with pytest.raises(ValueError):
        DvfsGovernor(table, mode="turbo")


def test_thermal_heats_under_load_and_throttles():
    sim = Simulator()
    soc = make_soc(sim, "sd845")
    thermal = soc.thermal
    assert thermal.temperature == pytest.approx(33.0)

    def run_hot():
        yield sim.timeout(units.seconds(60))

    sim.process(run_hot())
    sim.run()
    thermal.update(load_fraction=1.0)
    assert thermal.temperature > 70.0
    assert thermal.is_throttling
    assert soc.big_cluster.thermal_factor < 1.0


def test_thermal_cooldown_protocol():
    sim = Simulator()
    soc = make_soc(sim, "sd845")
    thermal = soc.thermal
    thermal.temperature = 60.0
    thermal._last_update = sim.now
    delay = thermal.cooldown_time_us()
    assert delay > 0
    # Idling for the cooldown time relaxes the die to within the 1 °C
    # margin of its idle temperature.
    sim.run(until=sim.timeout(delay))
    final = thermal.update(0.0)
    assert final == pytest.approx(thermal.idle_celsius + 1.0)
    assert sim.now == delay


def test_inception_cpu_anchor_plausible():
    """Inception v3 fp32 conv work ~ paper's 250 ms CPU benchmark."""
    from repro.soc import params

    graph = load_model("inception_v3")
    conv_flops = sum(op.flops for op in graph.ops if op.compute_class == "conv")
    # 4 big cores at ~12 GFLOP/s each, 80% parallel efficiency.
    seconds = conv_flops / (params.CPU_CONV_GFLOPS * 1e9 * 4 * 0.8)
    assert 0.15 < seconds < 0.5
