"""Fig. 8: offload overhead amortization over consecutive inferences.

MobileNet v1 through the NNAPI Hexagon path: for a handful of
inferences the offload cost (session setup, kernel crossings, flushes)
dominates; as the count grows the one-time setup amortizes and the
offload share of total time falls.
"""

from repro.android import Kernel
from repro.apps.sessions import make_session
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim, cell
from repro.models import load_model
from repro.sim import Simulator
from repro.sim import units
from repro.soc import make_soc

COUNTS = (1, 2, 5, 10, 20, 50, 100, 200, 500)


def _measure(count, seed, model_key, dtype, target):
    sim = Simulator(seed=seed)
    soc = make_soc(sim, "sd845", governor_mode="performance")
    kernel = Kernel(sim, soc, enable_dvfs=False)
    model = load_model(model_key, dtype)
    session = make_session(kernel, model, target=target)
    compute_us = soc.dsp.graph_time_us(model.ops, "int8")

    def body():
        yield from session.prepare()
        for _ in range(count):
            yield from session.invoke()

    thread = kernel.spawn_on_big(body(), name="offload")
    start_setup = 0.0
    sim.run(until=thread.done)
    total_us = sim.now - start_setup
    pure_compute_us = compute_us * count
    return total_us, pure_compute_us


def _falls(result):
    shares = result.column("offload share")
    return all(a >= b for a, b in zip(shares, shares[1:]))


def _at_most_inferences(result, header):
    """``header`` at the largest inference count."""
    values = result.lookup("inferences", header)
    return values[max(values)]


def _single_over_most(result):
    mean_ms = result.lookup("inferences", "mean ms/inf")
    return mean_ms[1] / mean_ms[max(mean_ms)]


CLAIMS = (
    Claim("share_falls", "falls", "= yes", _falls,
          "the offload share falls as the one-time setup amortizes"),
    Claim("cold_share", "62%", "> 0.4",
          cell("inferences", "offload share", 1),
          "offload dominates a single inference"),
    Claim("amortized_share", "~3%", "< 0.1",
          lambda result: _at_most_inferences(result, "offload share"),
          "offload is a small share once amortized over many inferences"),
    Claim("cold_over_amortized_mean", "amortizes", "> 1.5",
          _single_over_most,
          "a single inference costs far more than an amortized one"),
)


@experiment("fig8", claims=CLAIMS)
def run(seed=0, model_key="mobilenet_v1", dtype="int8", target="nnapi",
        counts=COUNTS):
    headers = (
        "inferences", "total ms", "mean ms/inf",
        "offload+setup ms", "offload share",
    )
    rows = []
    mean_series = []
    share_series = []
    for count in counts:
        total_us, compute_us = _measure(count, seed, model_key, dtype, target)
        overhead_us = total_us - compute_us
        share = overhead_us / total_us if total_us else 0.0
        rows.append(
            (
                count,
                units.to_ms(total_us),
                units.to_ms(total_us / count),
                units.to_ms(overhead_us),
                share,
            )
        )
        mean_series.append(units.to_ms(total_us / count))
        share_series.append(share)
    return ExperimentResult(
        experiment_id="fig8",
        title=f"{model_key} [{dtype}] via {target}: cold-start amortization",
        headers=headers,
        rows=rows,
        series={"mean_ms": mean_series, "offload_share": share_series,
                "counts": list(counts)},
        notes=[
            "offload share falls monotonically as the DSP session setup "
            "and model preparation amortize (paper: 'the DSP initial "
            "setup is done once')",
        ],
    )
