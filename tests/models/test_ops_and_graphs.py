"""Op factory and graph accounting tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (
    ModelGraph,
    TensorSpec,
    avgpool,
    concat,
    conv2d,
    depthwise_conv2d,
    fully_connected,
    matmul,
    maxpool,
    quantize_graph,
    softmax,
)


def test_conv2d_flops_formula():
    op = conv2d("c", (8, 8), 16, 32, kernel=3, stride=1)
    assert op.flops == 2 * 8 * 8 * 32 * 16 * 9
    assert op.params == 9 * 16 * 32 + 32
    assert op.output_shape == (8, 8, 32)


def test_conv2d_stride_halves_output():
    op = conv2d("c", (9, 9), 4, 4, kernel=3, stride=2)
    assert op.output_shape[:2] == (5, 5)  # ceil(9/2)


def test_conv2d_rectangular_kernel():
    op = conv2d("c", (8, 8), 16, 16, kernel=(1, 7))
    square = conv2d("c2", (8, 8), 16, 16, kernel=7)
    assert op.flops == square.flops / 7
    assert op.attrs["kernel"] == (1, 7)


def test_depthwise_much_cheaper_than_dense():
    dense = conv2d("d", (16, 16), 64, 64, 3)
    dw = depthwise_conv2d("dw", (16, 16), 64, 3)
    assert dense.flops == 64 * dw.flops
    assert dw.compute_class == "depthwise"


def test_fully_connected_and_matmul():
    fc = fully_connected("fc", 1024, 10)
    assert fc.flops == 2 * 1024 * 10
    assert fc.params == 1024 * 10 + 10
    mm = matmul("mm", 128, 512, 512, weights=False)
    assert mm.params == 0
    mm_w = matmul("mmw", 128, 512, 512)
    assert mm_w.params == 512 * 512 + 512


def test_pool_shapes():
    assert maxpool("p", (224, 224), 64, 3, 2).output_shape == (112, 112, 64)
    assert avgpool("g", (7, 7), 1280).output_shape == (1, 1, 1280)


def test_concat_adds_channels():
    op = concat("cat", [(8, 8, 16), (8, 8, 32)])
    assert op.output_shape == (8, 8, 48)


def test_negative_work_rejected():
    with pytest.raises(ValueError):
        softmax("s", -1)


def test_graph_requires_ops():
    with pytest.raises(ValueError, match="no ops"):
        ModelGraph("empty", "classification", TensorSpec((4, 4, 3)), ())


def test_graph_aggregates():
    ops = (
        conv2d("c", (8, 8), 3, 8, 3),
        fully_connected("fc", 512, 10),
    )
    graph = ModelGraph("tiny", "classification", TensorSpec((8, 8, 3)), ops)
    assert graph.total_flops == ops[0].flops + ops[1].flops
    assert graph.total_params == ops[0].params + ops[1].params
    assert graph.op_count == 2
    assert graph.weight_bytes == graph.total_params * 4
    assert "tiny" in graph.summary()


def test_quantize_graph_shrinks_weights():
    ops = (conv2d("c", (8, 8), 3, 8, 3),)
    graph = ModelGraph("tiny", "classification", TensorSpec((8, 8, 3)), ops)
    quantized = quantize_graph(graph)
    assert quantized.dtype == "int8"
    assert quantized.weight_bytes == graph.weight_bytes // 4
    assert quantized.total_flops == graph.total_flops
    assert quantized.metadata["quantized_from"] == "tiny"
    with pytest.raises(ValueError, match="already quantized"):
        quantize_graph(quantized)


def test_tensor_spec_validation():
    with pytest.raises(ValueError):
        TensorSpec((0, 4), "fp32")
    with pytest.raises(ValueError):
        TensorSpec((4,), "complex128")
    spec = TensorSpec((2, 3), "int8")
    assert spec.numel == 6
    assert spec.nbytes == 6
    assert spec.with_dtype("fp32").nbytes == 24
    assert str(spec) == "int8[2x3]"


@settings(max_examples=30, deadline=None)
@given(
    hw=st.integers(4, 64),
    in_ch=st.integers(1, 64),
    out_ch=st.integers(1, 64),
    kernel=st.sampled_from([1, 3, 5, 7]),
    stride=st.sampled_from([1, 2]),
)
def test_conv_flops_positive_and_monotone_property(hw, in_ch, out_ch, kernel, stride):
    op = conv2d("c", (hw, hw), in_ch, out_ch, kernel, stride)
    assert op.flops > 0
    bigger = conv2d("c2", (hw, hw), in_ch, out_ch + 1, kernel, stride)
    assert bigger.flops > op.flops
    assert bigger.params > op.params


def test_peak_activation_and_footprint():
    ops = (
        conv2d("c", (8, 8), 3, 8, 3),
        fully_connected("fc", 512, 10),
    )
    graph = ModelGraph("tiny", "classification", TensorSpec((8, 8, 3)), ops)
    per_op = [
        (op.input_elems + op.output_elems) * 4 for op in ops
    ]
    assert graph.peak_activation_bytes == max(per_op)
    assert graph.memory_footprint_bytes == (
        graph.weight_bytes + graph.peak_activation_bytes
    )
    quantized = quantize_graph(graph)
    assert quantized.peak_activation_bytes == graph.peak_activation_bytes // 4
