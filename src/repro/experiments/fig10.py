"""Fig. 10: multi-tenancy with the background load on the CPU instead.

Same setup as Fig. 9 except the K background inference jobs run on CPU
threads. Now the app's DSP inference latency stays ~constant (no DSP
contention) while capture and pre-processing — CPU work — stretch with
the added load.
"""

from repro.experiments.base import experiment
from repro.experiments.claims import Claim, ratio
from repro.experiments.fig9 import _background_sweep, _cpu_side


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
def run(runs=10, seed=0):
    return _background_sweep(
        "fig10", "cpu", runs, seed,
        title="App latency vs background inferences on the CPU",
        notes=[
            "capture + pre-processing grow with CPU contention",
            "inference stays ~constant (the DSP is uncontended)",
        ],
    )
