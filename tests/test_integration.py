"""Cross-module integration tests.

These drive full pipelines across the support matrix and check
system-level invariants that no single-module test can see.
"""

import pytest

from repro.apps import PipelineConfig, run_pipeline
from repro.core import breakdown
from repro.experiments.base import ExperimentResult
from repro.models import MODEL_CARDS, load_model
from repro.soc import SOC_SPECS


@pytest.mark.parametrize("model_key", sorted(MODEL_CARDS))
def test_every_table1_model_runs_as_cpu_app(model_key):
    """Every Table-I model completes a full app pipeline on the CPU."""
    config = PipelineConfig(
        model_key=model_key, dtype="fp32", context="app",
        target="cpu", runs=3,
    )
    records = run_pipeline(config)
    assert len(records) == 3
    result = breakdown(records, drop_warmup=1)
    assert result.total_ms > 0
    assert result.inference_ms > 0
    assert 0.0 <= result.tax_fraction < 1.0


@pytest.mark.parametrize(
    "model_key",
    [k for k, card in MODEL_CARDS.items() if card.nnapi_fp32],
)
def test_nnapi_supported_models_run_via_nnapi(model_key):
    config = PipelineConfig(
        model_key=model_key, dtype="fp32", context="cli",
        target="nnapi", runs=2,
    )
    records = run_pipeline(config)
    assert records.mean_us("inference_us") > 0


@pytest.mark.parametrize("soc_key", sorted(SOC_SPECS))
def test_pipeline_runs_on_every_platform(soc_key):
    config = PipelineConfig(
        model_key="mobilenet_v1", dtype="int8", context="app",
        target="nnapi", runs=3, soc=soc_key,
    )
    records = run_pipeline(config)
    assert breakdown(records).total_ms > 0


def test_newer_socs_infer_faster():
    inference = []
    for soc_key in ("sd835", "sd845", "sd855", "sd865"):
        config = PipelineConfig(
            model_key="mobilenet_v1", dtype="int8", context="cli",
            target="nnapi", runs=4, soc=soc_key,
        )
        inference.append(
            breakdown(run_pipeline(config)).inference_ms
        )
    assert all(a > b for a, b in zip(inference, inference[1:]))


def test_stage_sum_equals_total():
    config = PipelineConfig(
        model_key="posenet", dtype="fp32", context="app",
        target="nnapi", runs=4,
    )
    records = run_pipeline(config)
    for run in records:
        parts = (
            run.capture_us + run.pre_us + run.inference_us
            + run.post_us + run.other_us
        )
        assert parts == pytest.approx(run.total_us)


def test_simulated_time_is_causal():
    """Per-run stage timings are non-negative in every configuration."""
    for context in ("cli", "bench_app", "app"):
        config = PipelineConfig(
            model_key="squeezenet", dtype="fp32", context=context,
            target="cpu", runs=3,
        )
        for run in run_pipeline(config):
            assert run.capture_us >= 0
            assert run.pre_us >= 0
            assert run.inference_us > 0
            assert run.post_us >= 0
            assert run.other_us >= 0


def test_quantized_faster_than_float_on_dsp_capable_path():
    latencies = {}
    for dtype in ("fp32", "int8"):
        config = PipelineConfig(
            model_key="mobilenet_v1", dtype=dtype, context="cli",
            target="nnapi", runs=4,
        )
        latencies[dtype] = breakdown(run_pipeline(config)).inference_ms
    # int8 goes to the DSP; fp32 to the GPU: the DSP path wins.
    assert latencies["int8"] < latencies["fp32"]


def test_experiment_result_column_and_rowmap_roundtrip():
    result = ExperimentResult(
        experiment_id="x",
        title="t",
        headers=("a", "b"),
        rows=[(1, "one"), (2, "two")],
    )
    assert result.column("b") == ["one", "two"]
    assert result.lookup("a", "b") == {1: "one", 2: "two"}
    rendered = result.render()
    assert "[x] t" in rendered


def test_models_are_immutable_across_runs():
    """Shared cached graphs must not be mutated by pipeline runs."""
    graph = load_model("mobilenet_v1")
    flops_before = graph.total_flops
    config = PipelineConfig(
        model_key="mobilenet_v1", dtype="fp32", context="cli",
        target="cpu", runs=2,
    )
    run_pipeline(config)
    assert load_model("mobilenet_v1").total_flops == flops_before
