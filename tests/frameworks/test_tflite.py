"""TFLite interpreter + delegate tests."""

import pytest

from repro.frameworks import (
    GpuDelegate,
    HexagonDelegate,
    TfliteInterpreter,
    UnsupportedModelError,
    graph_cpu_work_us,
    op_cpu_work_us,
    parallel_efficiency,
)
from repro.models import conv2d, load_model

from tests.frameworks.conftest import drive_session


def test_cpu_kernel_rates_ordering():
    op = conv2d("c", (56, 56), 64, 64, 3)
    tuned_fp32 = op_cpu_work_us(op, "fp32", "tuned")
    tuned_int8 = op_cpu_work_us(op, "int8", "tuned")
    reference_int8 = op_cpu_work_us(op, "int8", "reference")
    assert tuned_int8 < tuned_fp32
    assert reference_int8 > 4 * tuned_fp32
    with pytest.raises(ValueError):
        op_cpu_work_us(op, "fp32", "jit")


def test_parallel_efficiency_interpolates_and_clamps():
    assert parallel_efficiency(1) == 1.0
    assert parallel_efficiency(4) == 0.80
    assert 0.80 < parallel_efficiency(3) < 0.92
    assert parallel_efficiency(16) == parallel_efficiency(8)


def test_invoke_before_prepare_raises(rig):
    sim, soc, kernel = rig
    session = TfliteInterpreter(kernel, load_model("mobilenet_v1"))
    with pytest.raises(RuntimeError, match="prepare"):
        kernel.spawn_on_big(session.invoke(), name="bad")
        sim.run()


def test_cpu_four_threads_faster_than_one(rig):
    sim, soc, kernel = rig
    model = load_model("mobilenet_v1")
    fast = TfliteInterpreter(kernel, model, threads=4)
    durations4 = drive_session(sim, kernel, fast, invokes=2)
    slow = TfliteInterpreter(kernel, model, threads=1)
    durations1 = drive_session(sim, kernel, slow, invokes=2)
    assert durations1[-1] > 2.5 * durations4[-1]


def test_interpreter_init_scales_with_model_size(rig):
    sim, soc, kernel = rig
    small = TfliteInterpreter(kernel, load_model("mobilenet_v1"))
    drive_session(sim, kernel, small, invokes=1)
    large = TfliteInterpreter(kernel, load_model("inception_v4"))
    drive_session(sim, kernel, large, invokes=1)
    assert large.stats.init_us > small.stats.init_us


def test_hexagon_delegate_runs_quantized(rig):
    sim, soc, kernel = rig
    model = load_model("mobilenet_v1", "int8")
    session = TfliteInterpreter(kernel, model, delegate=HexagonDelegate(kernel))
    durations = drive_session(sim, kernel, session, invokes=3)
    # Warm inferences are faster than 4-thread CPU for this model.
    cpu = TfliteInterpreter(kernel, model, threads=4)
    cpu_durations = drive_session(sim, kernel, cpu, invokes=3)
    assert durations[-1] < cpu_durations[-1]
    assert session.describe_plan() == f"all {model.op_count} ops on hexagon"


def test_hexagon_delegate_rejects_float(rig):
    sim, soc, kernel = rig
    model = load_model("mobilenet_v1")
    session = TfliteInterpreter(kernel, model, delegate=HexagonDelegate(kernel))
    thread = kernel.spawn_on_big(session.prepare(), name="prep")
    with pytest.raises(UnsupportedModelError):
        sim.run(until=thread.done)


def test_gpu_delegate_rejects_quantized_and_bert(rig):
    sim, soc, kernel = rig
    delegate = GpuDelegate(kernel)
    assert not delegate.covers(load_model("mobilenet_v1", "int8"))
    assert not delegate.covers(load_model("mobile_bert"))
    assert delegate.covers(load_model("mobilenet_v1"))


def test_gpu_delegate_init_pays_shader_compile(rig):
    sim, soc, kernel = rig
    model = load_model("mobilenet_v1")
    session = TfliteInterpreter(kernel, model, delegate=GpuDelegate(kernel))
    drive_session(sim, kernel, session, invokes=2)
    assert session.stats.init_us > soc.gpu.init_time_us * 0.9


def test_gpu_fp16_faster_than_fp32(rig):
    sim, soc, kernel = rig
    model = load_model("inception_v3")
    fp16_us = soc.gpu.graph_time_us(model.ops, "fp16")
    assert fp16_us < soc.gpu.graph_time_us(model.ops, "fp32")
    session = TfliteInterpreter(kernel, model, delegate=GpuDelegate(kernel))
    drive_session(sim, kernel, session, invokes=2)
    compute = [span.duration for span in sim.trace.spans_on("gpu")]
    assert compute == [pytest.approx(fp16_us)] * 2


def test_stats_track_invocations(rig):
    sim, soc, kernel = rig
    session = TfliteInterpreter(kernel, load_model("squeezenet"), threads=4)
    durations = drive_session(sim, kernel, session, invokes=4)
    assert session.stats.invocations == 4
    assert all(duration > 0 for duration in durations)
    assert session.describe_plan().startswith("all")


def test_graph_cpu_work_additive():
    model = load_model("squeezenet")
    total = graph_cpu_work_us(model.ops, "fp32")
    assert total == pytest.approx(
        sum(op_cpu_work_us(op, "fp32") for op in model.ops)
    )
