"""Miscellaneous behaviour tests across small utility surfaces."""

import pytest

from repro.sim import Simulator, units
from repro.soc import make_soc


# -- units ---------------------------------------------------------------


def test_unit_conversions_roundtrip():
    assert units.ms(3.5) == 3_500.0
    assert units.seconds(2) == 2_000_000.0
    assert units.us(7) == 7.0
    assert units.to_ms(units.ms(12.0)) == 12.0
    assert units.to_seconds(units.seconds(0.5)) == 0.5


# -- report rendering edge cases ------------------------------------------


def test_render_table_empty_rows():
    from repro.core.report import render_table

    text = render_table(("col_a", "col_b"), [])
    lines = text.splitlines()
    assert len(lines) == 2
    assert "col_a" in lines[0]


def test_render_table_bool_formatting():
    from repro.core.report import render_table

    text = render_table(("x",), [(True,), (False,)])
    assert "Y" in text and "N" in text


# -- stdlib variants through the harness -----------------------------------


def test_libstdcpp_benchmark_cheap_int_capture():
    from repro.apps import PipelineConfig, run_pipeline
    from repro.core import breakdown

    captures = {}
    for stdlib in ("libc++", "libstdc++"):
        config = PipelineConfig(
            model_key="mobilenet_v1", dtype="int8", context="cli",
            target="cpu", runs=4, stdlib=stdlib,
        )
        captures[stdlib] = breakdown(run_pipeline(config)).capture_ms
    # int8 random generation: expensive under libc++, cheap under GNU.
    assert captures["libc++"] > 3 * captures["libstdc++"]


# -- soc odds and ends -------------------------------------------------------


def test_chip_core_lookup_errors():
    sim = Simulator()
    soc = make_soc(sim, "sd845")
    with pytest.raises(KeyError):
        soc.core(99)
    assert "Snapdragon 845" in repr(soc)


def test_opp_ceiling_for():
    from repro.soc.frequency import OppTable

    table = OppTable((300, 600, 900, 1_000))
    assert table.ceiling_for(0.85) == 600
    assert table.ceiling_for(1.0) == 1_000
    assert table.ceiling_for(0.1) == 300  # below min: floor at min


def test_dsp_map_unmap_cycle():
    sim = Simulator()
    soc = make_soc(sim, "sd845")
    assert soc.dsp.map_process(1) is True
    assert soc.dsp.map_process(1) is False  # already mapped
    soc.dsp.unmap_process(1)
    assert soc.dsp.map_process(1) is True


def test_gpu_rejects_nothing_it_claims():
    from repro.frameworks import supports_op
    from repro.models import load_model

    ops = load_model("mobilenet_v1").ops
    for dtype in ("fp32", "fp16"):
        assert all(supports_op("gpu-delegate", op, dtype) for op in ops)
    assert not any(supports_op("gpu-delegate", op, "int8") for op in ops)
    assert not any(supports_op("hexagon-delegate", op, "fp16") for op in ops)


# -- trace marks --------------------------------------------------------------


def test_trace_marks_recorded():
    sim = Simulator(trace=True)

    def body():
        yield sim.timeout(5)
        sim.trace.mark("checkpoint", reason="test")

    sim.process(body())
    sim.run()
    assert sim.trace.marks == [(5.0, "checkpoint", {"reason": "test"})]


# -- interpreter details -------------------------------------------------------


def test_nnapi_gpu_compile_charged_for_float_models():
    from repro.android import Kernel
    from repro.frameworks import NnapiSession
    from repro.models import load_model

    sim = Simulator()
    soc = make_soc(sim, "sd845", governor_mode="performance")
    kernel = Kernel(sim, soc, enable_dvfs=False)
    session = NnapiSession(kernel, load_model("mobilenet_v1"))
    thread = kernel.spawn_on_big(session.prepare(), name="prep")
    sim.run(until=thread.done)
    # fp32 compilation includes the GPU shader build.
    assert session.stats.init_us > soc.gpu.init_time_us * 0.9


def test_nnapi_boundary_bytes_reflect_dtype():
    from repro.android import Kernel
    from repro.frameworks import NnapiSession
    from repro.models import load_model

    sim = Simulator()
    soc = make_soc(sim, "sd845", governor_mode="performance")
    kernel = Kernel(sim, soc, enable_dvfs=False)
    fp32 = NnapiSession(kernel, load_model("inception_v3"))
    int8 = NnapiSession(kernel, load_model("inception_v3", "int8"))
    partition = fp32.plan_partitions()[0]
    in_fp32, _ = fp32._boundary_bytes(partition)
    partition8 = int8.plan_partitions()[0]
    in_int8, _ = int8._boundary_bytes(partition8)
    assert in_fp32 == 4 * in_int8


def test_low_power_preference_uses_little_cores():
    from repro.android import Kernel
    from repro.frameworks import LOW_POWER, NnapiSession
    from repro.models import load_model

    sim = Simulator(trace=True)
    soc = make_soc(sim, "sd845", governor_mode="performance")
    kernel = Kernel(sim, soc, enable_dvfs=False)
    session = NnapiSession(
        kernel, load_model("inception_v3"), preference=LOW_POWER
    )

    def body():
        yield from session.prepare()
        yield from session.invoke()

    thread = kernel.spawn_on_big(body(), name="lowpower")
    sim.run(until=thread.done)
    little_tracks = [core.name for core in soc.little_cores]
    little_busy = sum(
        1
        for span in sim.trace.spans
        if span.track in little_tracks
        and "cpu_partition" in str(span.label)
    )
    assert little_busy > 0


def test_model_card_repr_fields():
    from repro.models import model_card

    card = model_card("posenet")
    assert card.resolution == "224x224"
    assert card.post_tasks_for("fp32") == ("calculate keypoints",)
