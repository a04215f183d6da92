"""Fig. 10: multi-tenancy with the background load on the CPU instead.

Same setup as Fig. 9 except the K background inference jobs run on CPU
threads. Now the app's DSP inference latency stays ~constant (no DSP
contention) while capture and pre-processing — CPU work — stretch with
the added load.
"""

from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim, ratio
from repro.experiments.fig9 import BACKGROUND_COUNTS, _cpu_side, _measure


def _cpu_side_growth(result):
    cpu_side = _cpu_side(result)
    return cpu_side[4] / cpu_side[0]


CLAIMS = (
    Claim("inference_growth_at_4", "~constant", "< 1.6",
          ratio("background jobs", "inference ms", 4, 0),
          "app inference stays ~constant (the DSP is uncontended)"),
    Claim("cpu_side_growth_at_4", "grows", "> 1.1", _cpu_side_growth,
          "capture + pre-processing stretch with CPU contention"),
)


@experiment("fig10", claims=CLAIMS, bench={"runs": 8})
def run(runs=10, seed=0, model_key="mobilenet_v1", dtype="int8",
        counts=BACKGROUND_COUNTS):
    headers = (
        "background jobs", "capture ms", "pre ms", "inference ms",
        "post ms", "total ms",
    )
    rows = []
    inference_series = []
    cpu_side_series = []
    for count in counts:
        b = _measure(count, "cpu", runs, seed, model_key, dtype)
        rows.append(
            (count, b.capture_ms, b.pre_ms, b.inference_ms, b.post_ms,
             b.total_ms)
        )
        inference_series.append(b.inference_ms)
        cpu_side_series.append(b.capture_ms + b.pre_ms)
    return ExperimentResult(
        experiment_id="fig10",
        title="App latency vs background inferences on the CPU",
        headers=headers,
        rows=rows,
        series={
            "counts": list(counts),
            "inference_ms": inference_series,
            "capture_plus_pre_ms": cpu_side_series,
        },
        notes=[
            "capture + pre-processing grow with CPU contention",
            "inference stays ~constant (the DSP is uncontended)",
        ],
    )
