"""Fleet percentiles: the paper's findings at device-population scale.

Expands the default paper population into N sessions, simulates them
(optionally across a worker pool, optionally against a result cache),
and reports fleet-level p50/p90/p99 end-to-end latency per packaging,
SoC, and model slice plus the cold-start/steady-state split. The two
headline shapes it must reproduce: the app packaging's p99/p50 tail
exceeds the benchmark packaging's (Fig. 11 at scale), and the quantized
app slice spends roughly half its end-to-end time in capture + pre- +
post-processing (Takeaway 1).
"""

from repro.experiments.base import experiment
from repro.experiments.claims import Claim


def _tail_ratio(result):
    series = result.series
    return series["app_tail_ratio"][0] / series["benchmark_tail_ratio"][0]


CLAIMS = (
    Claim("app_over_benchmark_tail", "app wider", "> 1", _tail_ratio,
          "Fig. 11 at fleet scale: the app's run-to-run tail is heavier"),
    Claim("quantized_app_tax", "~50%", "[0.35, 0.8]",
          lambda result: result.series["quantized_app_tax_fraction"][0],
          "Takeaway 1 at fleet scale: quantized apps' capture + pre/post"),
    Claim("cold_start_penalty", "n/a", "> 1",
          lambda result: result.series["cold_start_penalty"][0],
          "a session's first run costs more than its steady state"),
)


@experiment(
    "fleet_percentiles", claims=CLAIMS,
    bench={"sessions": 64, "runs": 6, "seed": 0},
)
def run(sessions=64, runs=6, workers=1, seed=0, cache_dir=None):
    # Imported lazily: repro.fleet renders through repro.experiments.base,
    # so a top-level import here would be circular.
    from repro.fleet import aggregate_fleet, run_fleet

    fleet = run_fleet(
        sessions=sessions,
        workers=workers,
        seed=seed,
        cache_dir=cache_dir,
        runs=runs,
    )
    result = aggregate_fleet(fleet).to_experiment_result()
    result.notes.append(
        f"simulated {fleet.simulated} sessions, "
        f"{fleet.cache_hits} served from cache, workers={fleet.workers}"
    )
    return result
