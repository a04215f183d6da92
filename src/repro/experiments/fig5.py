"""Fig. 5: quantized EfficientNet-Lite0 across four TFLite targets.

The paper's headline framework pitfall: NNAPI's automatic device
assignment degrades this model ~7x versus a single-threaded CPU because
lagging quantized-op driver support pushes the whole graph onto the
runtime's reference kernels.
"""

from repro.apps import PipelineConfig, run_pipeline
from repro.core import breakdown
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim, ratio

TARGETS = ("hexagon", "cpu", "cpu1", "nnapi")


CLAIMS = (
    Claim("hexagon_over_cpu", "fastest", "< 1",
          ratio("Target", "inference ms", "hexagon", "cpu"),
          "the Hexagon delegate beats the 4-thread CPU"),
    Claim("cpu_over_cpu1", "4T faster", "< 1",
          ratio("Target", "inference ms", "cpu", "cpu1"),
          "four CPU threads beat one"),
    Claim("nnapi_over_cpu1", "~7x", "(4, 11)",
          ratio("Target", "inference ms", "nnapi", "cpu1"),
          "NNAPI's reference-kernel fallback runs ~7x slower than one thread"),
)


@experiment("fig5", claims=CLAIMS, bench={"runs": 8})
def run(runs=10, seed=0):
    headers = ("Target", "inference ms", "slowdown vs cpu1")
    latencies = {}
    for target in TARGETS:
        config = PipelineConfig(
            model_key="efficientnet_lite0",
            dtype="int8",
            context="cli",
            target=target,
            runs=runs,
            seed=seed,
        )
        latencies[target] = breakdown(run_pipeline(config)).inference_ms
    rows = [
        (target, latencies[target], latencies[target] / latencies["cpu1"])
        for target in TARGETS
    ]
    return ExperimentResult(
        experiment_id="fig5",
        title="efficientnet_lite0 [int8]: TFLite target comparison",
        headers=headers,
        rows=rows,
        series={"latency_ms": [latencies[t] for t in TARGETS]},
        notes=[
            "paper: NNAPI ~7x slower than single-threaded CPU",
            "expected order: hexagon < cpu(4T) < cpu1 << nnapi",
        ],
    )
