"""Fig. 3: benchmark vs benchmark-app vs real-app end-to-end latency.

The paper runs the same models on the CPU in three packagings and shows
that both benchmark utilities mask the data-capture and pre-processing
penalties of real applications (e.g. Inception v3 fp32: ~250 ms in the
benchmark vs ~350 ms in the app).
"""

from repro.apps import PipelineConfig, run_pipeline
from repro.core import breakdown
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim

#: The model set shown in the figure (CPU-runnable variants).
MODELS = (
    ("mobilenet_v1", "fp32"),
    ("mobilenet_v1", "int8"),
    ("efficientnet_lite0", "fp32"),
    ("squeezenet", "fp32"),
    ("inception_v3", "fp32"),
    ("ssd_mobilenet_v2", "fp32"),
)

CONTEXTS = ("cli", "bench_app", "app")


def _lowest(result, over):
    """The smallest ``over`` / cli latency ratio across the models."""
    cli_ms = result.column("cli ms")
    return min(ms / cli for ms, cli in zip(result.column(over), cli_ms))


def _inception_gap_ms(result):
    app_ms = result.lookup("Model", "app ms")["inception_v3"]
    return app_ms - result.lookup("Model", "cli ms")["inception_v3"]


CLAIMS = (
    Claim("app_over_cli", "app slower", "> 1",
          lambda result: _lowest(result, "app ms"),
          "both benchmark utilities hide the app's end-to-end penalty"),
    Claim("bench_app_over_cli", "bench_app >= cli", ">= 0.98",
          lambda result: _lowest(result, "bench_app ms"),
          "the benchmark app costs at least what the CLI benchmark does"),
    Claim("inception_app_gap_ms", "+100 ms", "> 0", _inception_gap_ms,
          "Inception v3 fp32: app ~350 ms vs benchmark ~250 ms"),
)


@experiment("fig3", claims=CLAIMS, bench={"runs": 8})
def run(runs=10, seed=0):
    """End-to-end CPU latency per model across the three packagings."""
    headers = (
        "Model", "dtype", "cli ms", "bench_app ms", "app ms", "app/cli",
    )
    rows = []
    series = {}
    for model_key, dtype in MODELS:
        totals = {}
        for context in CONTEXTS:
            config = PipelineConfig(
                model_key=model_key,
                dtype=dtype,
                context=context,
                target="cpu",
                runs=runs,
                seed=seed,
            )
            totals[context] = breakdown(run_pipeline(config)).total_ms
        rows.append(
            (
                model_key,
                dtype,
                totals["cli"],
                totals["bench_app"],
                totals["app"],
                totals["app"] / totals["cli"],
            )
        )
        series[f"{model_key}:{dtype}"] = [totals[c] for c in CONTEXTS]
    return ExperimentResult(
        experiment_id="fig3",
        title="End-to-end CPU latency: benchmark vs benchmark app vs app",
        headers=headers,
        rows=rows,
        series=series,
        notes=[
            "expected shape: app > bench_app >= cli for every model",
            "paper anchor: Inception v3 fp32 app ~100 ms above benchmark",
        ],
    )
