"""Fig. 4: data capture + pre-processing vs inference, benchmark vs app.

(a) absolute per-stage latency; (b) capture and pre-processing relative
to inference. Both run the models through NNAPI as in the paper. Key
shapes: quantized MobileNet/SSD spend ~2x as long acquiring and
processing data as inferring; PoseNet pre-processing ~10% of runtime,
DeepLab ~1%; Inception is the only model where inference dominates.
"""

from repro.apps import PipelineConfig, run_pipeline
from repro.core import breakdown
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim

MODELS = (
    ("mobilenet_v1", "int8"),
    ("mobilenet_v1", "fp32"),
    ("efficientnet_lite0", "fp32"),
    ("ssd_mobilenet_v2", "int8"),
    ("posenet", "fp32"),
    ("deeplab_v3", "fp32"),
    ("inception_v3", "fp32"),
    ("inception_v3", "int8"),
)


def _value(model_key, dtype, context, header):
    """Measure: one model's ``header`` value in one context."""

    def measure(result):
        rows = {tuple(row[:3]): row for row in result.rows}
        row = rows[(model_key, dtype, context)]
        return row[result.headers.index(header)]

    return measure


CLAIMS = (
    Claim("mobilenet_int8_app_capture_pre", "~2x", "> 1.4",
          _value("mobilenet_v1", "int8", "app", "(capture+pre)/inference"),
          "quantized MobileNet apps spend ~2x inference on capture + pre"),
    Claim("inception_fp32_app_capture_pre", "inference wins", "< 0.4",
          _value("inception_v3", "fp32", "app", "(capture+pre)/inference"),
          "Inception is the only model where inference dominates"),
    Claim("mobilenet_int8_benchmark_capture_ms", "noticeable", "> 0",
          _value("mobilenet_v1", "int8", "benchmark", "capture ms"),
          "benchmarks fake quantized models' capture with random data"),
)


@experiment("fig4", claims=CLAIMS, bench={"runs": 8})
def run(runs=10, seed=0, models=MODELS):
    headers = (
        "Model", "dtype", "context",
        "capture ms", "pre ms", "inference ms",
        "(capture+pre)/inference", "pre share",
    )
    rows = []
    series = {}
    for model_key, dtype in models:
        for context in ("cli", "app"):
            config = PipelineConfig(
                model_key=model_key,
                dtype=dtype,
                context=context,
                target="nnapi",
                runs=runs,
                seed=seed,
            )
            b = breakdown(run_pipeline(config))
            rows.append(
                (
                    model_key,
                    dtype,
                    "benchmark" if context == "cli" else "app",
                    b.capture_ms,
                    b.pre_ms,
                    b.inference_ms,
                    b.capture_plus_pre_over_inference,
                    b.pre_ms / b.total_ms if b.total_ms else 0.0,
                )
            )
            series[f"{model_key}:{dtype}:{context}"] = [
                b.capture_ms, b.pre_ms, b.inference_ms,
            ]
    return ExperimentResult(
        experiment_id="fig4",
        title="Capture + pre-processing vs inference (NNAPI), benchmark vs app",
        headers=headers,
        rows=rows,
        series=series,
        notes=[
            "4a = the absolute columns; 4b = the relative column",
            "quantized MobileNet/SSD apps: capture+pre ~2x inference",
            "Inception: inference dominates even in the app",
        ],
    )
