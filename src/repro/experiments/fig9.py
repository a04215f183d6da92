"""Fig. 9: multi-tenancy — background inferences contending for the DSP.

An image-classification app offloads to the DSP while K background jobs
schedule inferences through the NNAPI Hexagon path. There is one DSP:
the app's inference latency grows ~linearly with K (queueing), while
its capture and pre-processing stay approximately constant because the
CPU is untouched.
"""

from repro.apps import PipelineConfig, run_pipeline
from repro.core import breakdown
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim, ratio

BACKGROUND_COUNTS = (0, 1, 2, 3, 4)


def _measure(background_count, background_target, runs, seed):
    # Background CPU jobs use TFLite's default 4 threads (as the paper's
    # benchmark utility does); DSP jobs serialize on the device anyway.
    config = PipelineConfig(
        model_key="mobilenet_v1",
        dtype="int8",
        context="app",
        target="nnapi",
        runs=runs,
        seed=seed,
        background=(background_count, background_target)
        if background_count
        else None,
        background_model="mobilenet_v1",
        background_dtype="int8" if background_target != "cpu" else "fp32",
        background_threads=4 if background_target == "cpu" else 1,
    )
    return breakdown(run_pipeline(config))


def _cpu_side(result):
    """Capture + pre-processing ms by background job count."""
    series = result.series
    return dict(zip(series["counts"], series["capture_plus_pre_ms"]))


def _cpu_side_spread(result):
    cpu_side = _cpu_side(result).values()
    return max(cpu_side) / min(cpu_side)


CLAIMS = (
    Claim("inference_growth_at_2", "grows ~linearly", "> 1.5",
          ratio("background jobs", "inference ms", 2, 0),
          "app inference queues behind background DSP jobs"),
    Claim("inference_growth_at_4", "grows ~linearly", "> 2.5",
          ratio("background jobs", "inference ms", 4, 0),
          "app inference queues behind background DSP jobs"),
    Claim("cpu_side_spread", "~constant", "< 2", _cpu_side_spread,
          "capture + pre-processing stay ~constant (the CPU is untouched)"),
)


def _background_sweep(experiment_id, background_target, runs, seed, title,
                      notes):
    """The app's breakdown at each background job count (Figs. 9, 10)."""
    rows = []
    inference_series = []
    cpu_side_series = []
    for count in BACKGROUND_COUNTS:
        b = _measure(count, background_target, runs, seed)
        rows.append(
            (count, b.capture_ms, b.pre_ms, b.inference_ms, b.post_ms,
             b.total_ms)
        )
        inference_series.append(b.inference_ms)
        cpu_side_series.append(b.capture_ms + b.pre_ms)
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=(
            "background jobs", "capture ms", "pre ms", "inference ms",
            "post ms", "total ms",
        ),
        rows=rows,
        series={
            "counts": list(BACKGROUND_COUNTS),
            "inference_ms": inference_series,
            "capture_plus_pre_ms": cpu_side_series,
        },
        notes=notes,
    )


@experiment("fig9", claims=CLAIMS, bench={"runs": 8})
def run(runs=10, seed=0):
    return _background_sweep(
        "fig9", "nnapi", runs, seed,
        title="App latency vs background inferences on the DSP",
        notes=[
            "inference grows ~linearly with background jobs (single DSP)",
            "capture + pre-processing stay ~constant (CPU unaffected)",
            "capture includes waiting for the next camera frame, so its "
            "absolute value shifts with the loop period (phase effect)",
        ],
    )
