"""Service-tier experiments: goodput under batching, overload, faults.

Two registered experiments exercise :mod:`repro.service` end to end:

``service_goodput``
    One calibrated backend pool, two sweeps. The *batch* sweep holds
    offered load fixed and varies the dynamic batcher's ``max_batch``,
    tracing the throughput-vs-latency tradeoff (batching amortizes the
    inference compute but not the per-request AI tax, and batch
    formation spends latency budget). The *load* sweep holds the
    batcher fixed and varies offered load from 0.5x to 2x the pool's
    saturation rate: throughput plateaus at capacity while goodput
    peaks earlier and collapses — the canonical open-loop overload
    curve.

``service_chaos``
    The same service under injected DSP-offload faults
    (:mod:`repro.faults`), calibrated over the chaos population. Faults
    shrink the pool (un-recovered vendor-runtime sessions produce no
    backend) and slow the survivors (retries, CPU fallbacks), so the
    identical offered load meets a smaller, slower fleet; the rows
    report goodput collapse and SLO-miss inflation against the
    fault-free baseline.
"""

from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim, ratio

#: Batch sizes swept at fixed offered load.
DEFAULT_BATCH_SIZES = (1, 2, 4, 8)
#: Offered load factors swept at fixed batching, x pool capacity.
DEFAULT_LOAD_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
#: Fraction of pool capacity offered during the batch sweep.
BATCH_SWEEP_LOAD = 0.7
#: Fault rates swept by the chaos variant (0.0 forced in as baseline).
DEFAULT_FAULT_RATES = (0.0, 0.2, 0.4)


def _service_row(kind, knob, result):
    misses = result.miss_attribution
    return (
        kind, knob, result.offered,
        result.throughput_rps, result.goodput_rps,
        result.p50_ms, result.p99_ms,
        misses["queueing"], misses["inference"], misses["ai_tax"],
        result.turned_away + result.shed,
    )


def _load_sweep(result, value):
    """The load sweep's ``value`` series by offered load factor."""
    return dict(zip(result.series["load_factor"], result.series[value]))


def _goodput_peak_over_saturation_load(result):
    goodput = _load_sweep(result, "load_goodput_rps")
    throughput = _load_sweep(result, "load_throughput_rps")
    return max(goodput, key=goodput.get) / max(throughput, key=throughput.get)


def _overload_share(value):
    """Measure: ``value`` at the heaviest offered load over its peak."""

    def measure(result):
        by_load = _load_sweep(result, value)
        return by_load[max(by_load)] / max(by_load.values())

    return measure


GOODPUT_CLAIMS = (
    Claim("goodput_peak_over_saturation_load", "n/a", "<= 1",
          _goodput_peak_over_saturation_load,
          "goodput peaks at or before the load where throughput saturates"),
    Claim("overload_goodput_share", "n/a", "< 0.5",
          _overload_share("load_goodput_rps"),
          "goodput collapses under overload..."),
    Claim("overload_throughput_share", "n/a", "> 0.6",
          _overload_share("load_throughput_rps"),
          "...while throughput merely flattens"),
    Claim("batch2_over_batch1_throughput", "n/a", "> 1",
          ratio("knob", "throughput rps", "max_batch=2", "max_batch=1"),
          "batching amortizes inference compute"),
    Claim("batch2_over_batch1_p99", "n/a", "< 1",
          ratio("knob", "p99 ms", "max_batch=2", "max_batch=1"),
          "off the batch=1 queueing cliff, batching cuts tail latency too"),
)


@experiment("service_goodput", claims=GOODPUT_CLAIMS)
def run(devices=4, duration_s=1.0, seed=0, slo_ms=50.0,
        batch_sizes=DEFAULT_BATCH_SIZES, load_factors=DEFAULT_LOAD_FACTORS,
        max_batch=4, max_delay_ms=5.0, queue_capacity=128,
        policy="reject", calibration_runs=3):
    from repro.service import (
        ServiceConfig,
        build_pool,
        pool_capacity_rps,
        run_service,
    )

    profiles, _failures = build_pool(
        devices=devices, seed=seed, runs=calibration_runs
    )
    capacity_rps = pool_capacity_rps(profiles, max_batch)

    rows = []
    series = {
        "batch_size": [], "batch_throughput_rps": [], "batch_p99_ms": [],
        "batch_goodput_rps": [],
        "load_factor": [], "load_throughput_rps": [],
        "load_goodput_rps": [], "load_p99_ms": [],
    }

    for batch in batch_sizes:
        result = run_service(
            ServiceConfig(
                rate_rps=BATCH_SWEEP_LOAD * capacity_rps,
                duration_s=duration_s,
                slo_ms=slo_ms,
                queue_capacity=queue_capacity,
                policy=policy,
                max_batch=batch,
                max_delay_ms=max_delay_ms,
                devices=devices,
                seed=seed,
            ),
            profiles=profiles,
        )
        rows.append(_service_row("batch", f"max_batch={batch}", result))
        series["batch_size"].append(batch)
        series["batch_throughput_rps"].append(result.throughput_rps)
        series["batch_goodput_rps"].append(result.goodput_rps)
        series["batch_p99_ms"].append(result.p99_ms)

    for factor in load_factors:
        result = run_service(
            ServiceConfig(
                rate_rps=factor * capacity_rps,
                duration_s=duration_s,
                slo_ms=slo_ms,
                queue_capacity=queue_capacity,
                policy=policy,
                max_batch=max_batch,
                max_delay_ms=max_delay_ms,
                devices=devices,
                seed=seed,
            ),
            profiles=profiles,
        )
        rows.append(_service_row("load", f"{factor:.2f}x", result))
        series["load_factor"].append(factor)
        series["load_throughput_rps"].append(result.throughput_rps)
        series["load_goodput_rps"].append(result.goodput_rps)
        series["load_p99_ms"].append(result.p99_ms)

    goodputs = series["load_goodput_rps"]
    throughputs = series["load_throughput_rps"]
    peak_goodput_factor = load_factors[goodputs.index(max(goodputs))]
    peak_throughput_factor = load_factors[
        throughputs.index(max(throughputs))
    ]
    notes = [
        f"pool capacity at max_batch={max_batch}: "
        f"{capacity_rps:.1f} rps over {len(profiles)} backends",
        f"batch sweep offered {BATCH_SWEEP_LOAD:.0%} of capacity; "
        f"load sweep used max_batch={max_batch}",
        f"goodput peaks at {peak_goodput_factor:.2f}x offered load; "
        f"throughput saturates at {peak_throughput_factor:.2f}x — "
        "past the peak, every extra offered request only adds queueing "
        "delay and SLO misses",
    ]
    return ExperimentResult(
        experiment_id="service_goodput",
        title=(
            f"inference service over {len(profiles)} fleet backends "
            f"(seed {seed}): batching tradeoff and overload sweep, "
            f"{slo_ms:g} ms SLO"
        ),
        headers=(
            "sweep", "knob", "offered",
            "throughput rps", "goodput rps", "p50 ms", "p99 ms",
            "miss:queue", "miss:infer", "miss:tax", "not served",
        ),
        rows=rows,
        series=series,
        notes=notes,
    )


@experiment("service_chaos")
# The default seed/devices pair must expand to a pool containing
# snpe-dsp sessions — the slice with no fault recovery — or injected
# faults cannot kill any backend (seed 5 x 12 devices includes four).
def run_chaos(devices=12, duration_s=1.0, seed=5, slo_ms=50.0,
              fault_rates=DEFAULT_FAULT_RATES, max_batch=4,
              max_delay_ms=5.0, queue_capacity=128, policy="reject",
              calibration_runs=3, load_factor=0.5):
    from repro.fleet import chaos_population
    from repro.service import (
        ServiceConfig,
        build_pool,
        pool_capacity_rps,
        run_service,
    )

    rates = sorted({0.0} | {float(rate) for rate in fault_rates})
    population = chaos_population()
    rows = []
    series = {
        "fault_rate": [], "backends": [], "goodput_rps": [],
        "throughput_rps": [], "slo_miss_rate": [], "p99_ms": [],
    }
    notes = []
    baseline_goodput = None
    offered_rps = None
    for rate in rates:
        profiles, failures = build_pool(
            population=population, devices=devices, seed=seed,
            runs=calibration_runs, fault_rate=rate,
        )
        if offered_rps is None:
            # The offered load is fixed by the *fault-free* pool: users
            # do not slow down because the fleet is having a bad day.
            offered_rps = load_factor * pool_capacity_rps(
                profiles, max_batch
            )
        result = run_service(
            ServiceConfig(
                rate_rps=offered_rps,
                duration_s=duration_s,
                slo_ms=slo_ms,
                queue_capacity=queue_capacity,
                policy=policy,
                max_batch=max_batch,
                max_delay_ms=max_delay_ms,
                devices=devices,
                seed=seed,
                fault_rate=rate,
            ),
            profiles=profiles,
        )
        if baseline_goodput is None:
            baseline_goodput = result.goodput_rps
        collapse = (
            result.goodput_rps / baseline_goodput
            if baseline_goodput > 0 else 0.0
        )
        rows.append((
            f"{rate:.2f}", len(profiles), len(failures), result.offered,
            result.throughput_rps, result.goodput_rps, collapse,
            result.p99_ms, result.slo_miss_rate,
        ))
        series["fault_rate"].append(rate)
        series["backends"].append(len(profiles))
        series["goodput_rps"].append(result.goodput_rps)
        series["throughput_rps"].append(result.throughput_rps)
        series["slo_miss_rate"].append(result.slo_miss_rate)
        series["p99_ms"].append(result.p99_ms)
        if failures:
            notes.append(
                f"rate {rate:.2f}: {len(failures)} calibration sessions "
                "died without recovery (vendor-runtime slice) — the "
                "pool served the same offered load short-handed"
            )
    notes.append(
        "offered load is fixed at the fault-free pool's "
        f"{load_factor:.0%}-capacity point; goodput x is relative to "
        "the 0.00 baseline row"
    )
    return ExperimentResult(
        experiment_id="service_chaos",
        title=(
            f"service goodput under DSP-offload fault injection "
            f"({devices} chaos-population devices, seed {seed})"
        ),
        headers=(
            "fault rate", "backends", "dead", "offered",
            "throughput rps", "goodput rps", "goodput x", "p99 ms",
            "slo miss rate",
        ),
        rows=rows,
        series=series,
        notes=notes,
    )
