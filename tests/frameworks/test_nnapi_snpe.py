"""NNAPI partitioning/fallback and SNPE tests — paper Fig. 5 / §IV-B."""

import pytest

from repro.frameworks import (
    NnapiSession,
    SnpeSession,
    TfliteInterpreter,
    UnsupportedModelError,
    supports_op,
)
from repro.models import load_model

from tests.frameworks.conftest import drive_session


# -- op support matrix ---------------------------------------------------


def test_nnapi_dsp_lacks_large_depthwise_int8():
    model = load_model("efficientnet_lite0", "int8")
    dw5 = [
        op
        for op in model.ops
        if op.kind == "DEPTHWISE_CONV_2D" and op.attrs["kernel"] == 5
    ]
    assert dw5, "EfficientNet-Lite0 should contain 5x5 depthwise stages"
    assert all(not supports_op("nnapi-dsp", op, "int8") for op in dw5)


def test_nnapi_lacks_asymmetric_convs():
    model = load_model("inception_v3")
    asym = [
        op
        for op in model.ops
        if op.kind == "CONV_2D" and op.attrs["kernel"][0] != op.attrs["kernel"][1]
    ]
    assert asym
    assert all(not supports_op("nnapi-gpu", op, "fp32") for op in asym)
    assert all(supports_op("cpu", op, "fp32") for op in asym)


def test_hexagon_delegate_full_mobilenet_coverage():
    model = load_model("mobilenet_v1", "int8")
    assert all(supports_op("hexagon-delegate", op, "int8") for op in model.ops)


def test_unknown_backend_raises():
    model = load_model("mobilenet_v1")
    with pytest.raises(KeyError):
        supports_op("cuda", model.ops[0], "fp32")


# -- partitioning ---------------------------------------------------------


def make_session(rig, key, dtype, **kwargs):
    _, _, kernel = rig
    return NnapiSession(kernel, load_model(key, dtype), **kwargs)


def test_mobilenet_int8_fully_delegated(rig):
    session = make_session(rig, "mobilenet_v1", "int8")
    partitions = session.plan_partitions()
    assert len(partitions) == 1
    assert partitions[0].device == "dsp"
    assert session.accelerated_fraction() == 1.0


def test_efficientnet_int8_falls_back_to_reference(rig):
    session = make_session(rig, "efficientnet_lite0", "int8")
    partitions = session.plan_partitions()
    assert session.reference_fallback
    assert [p.device for p in partitions] == ["cpu-reference"]
    assert session.accelerated_fraction() == 0.0


def test_efficientnet_fp32_does_not_fall_back(rig):
    """The paper: 'this does not occur in the floating-point model'."""
    session = make_session(rig, "efficientnet_lite0", "fp32")
    session.plan_partitions()
    assert not session.reference_fallback
    assert session.accelerated_fraction() == 1.0


def test_inception_partially_offloaded(rig):
    """Paper §IV-A: Inception runs about half its inference on the CPU."""
    session = make_session(rig, "inception_v3", "fp32")
    partitions = session.plan_partitions()
    assert len(partitions) > 5
    assert not session.reference_fallback
    assert 0.4 < session.accelerated_fraction() < 0.9
    assert "cpu" in session.describe_plan()


def test_fig5_shape_nnapi_7x_slower_than_cpu1(rig):
    sim, soc, kernel = rig
    model = load_model("efficientnet_lite0", "int8")
    nnapi = NnapiSession(kernel, model)
    nnapi_durations = drive_session(sim, kernel, nnapi, invokes=3)
    cpu1 = TfliteInterpreter(kernel, model, threads=1)
    cpu1_durations = drive_session(sim, kernel, cpu1, invokes=3)
    ratio = nnapi_durations[-1] / cpu1_durations[-1]
    assert 4.0 < ratio < 11.0


def test_nnapi_compile_probes_dsp_for_quantized(rig):
    sim, soc, kernel = rig
    session = make_session(rig, "efficientnet_lite0", "int8")
    drive_session(sim, kernel, session, invokes=1)
    # The compilation probe shows up as cDSP activity even though the
    # whole execution fell back to the CPU (paper Fig. 6).
    dsp_spans = sim.trace.spans_on("cdsp")
    assert any(span.label == "nnapi:probe" for span in dsp_spans)
    assert session.stats.init_us > 0


def test_nnapi_crossings_counted(rig):
    sim, soc, kernel = rig
    session = make_session(rig, "inception_v3", "fp32")
    drive_session(sim, kernel, session, invokes=2)
    boundaries = [
        span for span in sim.trace.spans_on("nnapi")
        if span.label == "boundary"
    ]
    # Adjacent partitions always differ in device: one crossing per
    # partition edge on every invoke.
    assert len(boundaries) == 2 * (len(session.partitions) - 1)
    assert len(session.partitions) > 5


def test_nnapi_rejects_bad_preference(rig):
    _, _, kernel = rig
    with pytest.raises(ValueError):
        NnapiSession(kernel, load_model("mobilenet_v1"), preference="turbo")


def test_nnapi_invoke_before_prepare(rig):
    sim, _, kernel = rig
    session = make_session(rig, "mobilenet_v1", "int8")
    with pytest.raises(RuntimeError, match="prepare"):
        kernel.spawn_on_big(session.invoke(), name="bad")
        sim.run()


# -- SNPE -----------------------------------------------------------------


def test_snpe_dsp_beats_nnapi_and_cpu(rig):
    """Paper §IV-B: under SNPE the DSP outperforms the CPU as expected."""
    sim, soc, kernel = rig
    model = load_model("efficientnet_lite0", "int8")
    snpe = SnpeSession(kernel, model, runtime="dsp")
    snpe_durations = drive_session(sim, kernel, snpe, invokes=3)
    cpu4 = TfliteInterpreter(kernel, model, threads=4)
    cpu_durations = drive_session(sim, kernel, cpu4, invokes=3)
    assert snpe_durations[-1] < cpu_durations[-1]


def test_snpe_requires_quantized_for_dsp(rig):
    sim, _, kernel = rig
    session = SnpeSession(kernel, load_model("mobilenet_v1"), runtime="dsp")
    with pytest.raises(UnsupportedModelError):
        thread = kernel.spawn_on_big(session.prepare(), name="prep")
        sim.run(until=thread.done)


def test_snpe_rejects_bert_on_dsp(rig):
    sim, _, kernel = rig
    session = SnpeSession(kernel, load_model("mobile_bert", "int8"), runtime="dsp")
    with pytest.raises(UnsupportedModelError, match="lacks ops"):
        thread = kernel.spawn_on_big(session.prepare(), name="prep")
        sim.run(until=thread.done)


def test_snpe_cpu_runtime_works_for_float(rig):
    sim, _, kernel = rig
    session = SnpeSession(kernel, load_model("mobilenet_v1"), runtime="cpu")
    durations = drive_session(sim, kernel, session, invokes=2)
    assert durations[-1] > 0
    assert session.describe_plan().endswith("snpe-cpu")


def test_snpe_unknown_runtime(rig):
    _, _, kernel = rig
    with pytest.raises(ValueError):
        SnpeSession(kernel, load_model("mobilenet_v1"), runtime="npu")
