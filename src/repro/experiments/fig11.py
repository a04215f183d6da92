"""Fig. 11: run-to-run latency distribution, app vs benchmark.

MobileNet v1 on the CPU, hundreds of iterations: the benchmark's
distribution is tight while the app's spreads up to ~30% from its
median — scheduling, sensor interrupt timing, GC, and DVFS all live in
the app's pipeline and not in the benchmark loop.
"""

from repro.apps import PipelineConfig, run_pipeline
from repro.core.variability import VariabilityStats, histogram_of
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim, cell, ratio
from repro.sim import units


CLAIMS = (
    Claim("app_over_benchmark_mean", "app slower", "> 1",
          ratio("context", "mean ms", "app", "benchmark"),
          "the app is slower than the benchmark loop"),
    Claim("app_over_benchmark_p5", "app slower", ">= 1",
          ratio("context", "p5 ms", "app", "benchmark"),
          "even the app's fastest runs are no faster than the benchmark's"),
    Claim("app_over_benchmark_cv", "app wider", "> 1",
          ratio("context", "CV", "app", "benchmark"),
          "apps vary run-to-run far more than benchmark loops"),
    Claim("app_over_benchmark_max_deviation", "app wider", ">= 1",
          ratio("context", "max |dev| from median", "app", "benchmark"),
          "the app strays further from its median than the benchmark"),
    Claim("app_max_deviation", "~30%", "<= 0.3",
          cell("context", "max |dev| from median", "app"),
          "app latency strays up to ~30% from its median"),
)


@experiment("fig11", claims=CLAIMS, bench={"runs": 120})
def run(runs=150, seed=0):
    headers = (
        "context", "n", "mean ms", "median ms", "std ms",
        "p5 ms", "p95 ms", "max |dev| from median", "CV",
    )
    rows = []
    series = {}
    for context in ("cli", "app"):
        config = PipelineConfig(
            model_key="mobilenet_v1",
            dtype="fp32",
            context=context,
            target="cpu",
            runs=runs,
            seed=seed,
        )
        records = run_pipeline(config)
        stats = VariabilityStats.from_collection(records)
        label = "benchmark" if context == "cli" else "app"
        rows.append(
            (
                label,
                stats.n,
                stats.mean_ms,
                stats.median_ms,
                stats.std_ms,
                stats.p5_ms,
                stats.p95_ms,
                stats.max_deviation_from_median,
                stats.cv,
            )
        )
        series[f"{label}_histogram"] = histogram_of(records, bins=12)
        series[f"{label}_latencies_ms"] = [
            units.to_ms(run.total_us) for run in records.drop_warmup(1)
        ]
    return ExperimentResult(
        experiment_id="fig11",
        title="mobilenet_v1 [fp32] on cpu: latency distributions",
        headers=headers,
        rows=rows,
        series=series,
        notes=[
            "paper: app deviates up to ~30% from median; benchmark tight",
        ],
    )
