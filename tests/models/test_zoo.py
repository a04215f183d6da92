"""Model zoo tests: Table-I fidelity and architecture sanity."""

import pytest

from repro.models import MODEL_CARDS, load_model, model_card

#: Canonical (MMACs, MParams) ballparks from the literature; the builders
#: should land within a loose factor of these.
CANONICAL = {
    "mobilenet_v1": (569, 4.2),
    "squeezenet": (837, 1.25),
    "efficientnet_lite0": (400, 4.6),
    "inception_v3": (5_700, 23.8),
    "inception_v4": (12_300, 42.7),
    "ssd_mobilenet_v2": (800, 4.3),
    "mobile_bert": (7_500, 25.0),
}


def test_table1_has_eleven_rows():
    assert len(MODEL_CARDS) == 11


def test_all_models_build_in_supported_dtypes():
    for key, card in MODEL_CARDS.items():
        fp32 = load_model(key, "fp32")
        assert fp32.op_count > 5
        assert fp32.total_flops > 0
        if card.cpu_int8 or card.nnapi_int8:
            int8 = load_model(key, "int8")
            assert int8.dtype == "int8"
            assert int8.total_flops == fp32.total_flops


def test_macs_and_params_near_canonical():
    for key, (mmacs, mparams) in CANONICAL.items():
        graph = load_model(key)
        measured_mmacs = graph.total_macs / 1e6
        measured_mparams = graph.total_params / 1e6
        assert mmacs / 2.0 < measured_mmacs < mmacs * 2.5, key
        assert mparams / 2.0 < measured_mparams < mparams * 2.0, key


def test_resolutions_match_table1():
    expectations = {
        "mobilenet_v1": 224,
        "nasnet_mobile": 331,
        "squeezenet": 227,
        "efficientnet_lite0": 224,
        "alexnet": 256,
        "inception_v4": 299,
        "inception_v3": 299,
        "deeplab_v3": 513,
        "ssd_mobilenet_v2": 300,
        "posenet": 224,
    }
    for key, resolution in expectations.items():
        graph = load_model(key)
        assert graph.input_spec.shape[0] == resolution, key


def test_support_matrix_matches_table1():
    card = model_card("alexnet")
    assert not card.supports("nnapi", "fp32")
    assert card.supports("cpu", "int8")
    card = model_card("nasnet_mobile")
    assert card.supports("nnapi", "fp32")
    assert not card.supports("nnapi", "int8")
    card = model_card("mobilenet_v1")
    assert all(
        card.supports(fw, dt)
        for fw in ("nnapi", "cpu")
        for dt in ("fp32", "int8")
    )
    with pytest.raises(ValueError):
        card.supports("coreml", "fp32")


def test_post_tasks_dequantization_only_for_int8():
    card = model_card("mobilenet_v1")
    assert "dequantization" in card.post_tasks_for("int8")
    assert "dequantization" not in card.post_tasks_for("fp32")
    assert "topK" in card.post_tasks_for("fp32")


def test_tasks_match_table1():
    tasks = {card.task for card in MODEL_CARDS.values()}
    assert tasks == {
        "classification",
        "face_recognition",
        "segmentation",
        "object_detection",
        "pose_estimation",
        "language_processing",
    }


def test_unknown_model_raises():
    with pytest.raises(KeyError, match="unknown model"):
        model_card("resnet50")
    with pytest.raises(KeyError):
        load_model("resnet50")
    with pytest.raises(ValueError):
        load_model("mobilenet_v1", "int4")


def test_load_model_caches():
    assert load_model("mobilenet_v1") is load_model("mobilenet_v1")


def test_nasnet_has_many_ops():
    """NASNet's cell structure yields a large op count (delegation stress)."""
    assert load_model("nasnet_mobile").op_count > 300


def test_posenet_heads_and_metadata():
    graph = load_model("posenet")
    heads = [op for op in graph.ops if op.name.startswith("head_")]
    assert len(heads) == 4
    assert graph.metadata["keypoints"] == 17
    grid = graph.metadata["heatmap_size"]
    assert grid[0] == 14  # 224 / 16


def test_deeplab_output_is_dense():
    graph = load_model("deeplab_v3")
    assert graph.ops[-1].kind == "RESIZE_BILINEAR"
    assert graph.ops[-1].output_shape[:2] == (513, 513)


def test_alexnet_params_dominated_by_fc():
    graph = load_model("alexnet")
    fc_params = sum(op.params for op in graph.ops if op.kind == "FULLY_CONNECTED")
    assert fc_params > 0.85 * graph.total_params


def test_mobilebert_attention_present():
    graph = load_model("mobile_bert")
    assert sum(op.kind == "ATTENTION" for op in graph.ops) == 24
    assert graph.input_spec.dtype == "int32"
