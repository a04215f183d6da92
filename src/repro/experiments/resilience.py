"""Resilience experiment: does backend health machinery pay for itself?

One calibrated backend pool is driven through the same SSR-storm
incident — a subsystem restart takes out part of the pool mid-run while
open-loop traffic keeps arriving — under three supervision modes:

``off``
    No breakers: join-shortest-queue keeps routing to the rebooting
    backend (a failed batch hands its requests back, so the dead
    backend's queue looks attractively short), and every request parked
    behind the reboot blows its SLO.
``breakers``
    Per-backend circuit breakers (:mod:`repro.service.health`): the
    first failed batch trips the breaker, the backend is ejected from
    routing for the reboot window, and half-open probes re-admit it.
``breakers+brownout``
    Breakers plus brownout: while the shrunken pool's backlog is above
    the high watermark, dispatched requests are served by the degraded
    (cheaper) model variant, trading answer quality for latency.

A second sweep holds the mode fixed and varies a steady per-batch
backend fault rate, comparing goodput with breakers on vs off.
Everything is deterministic — same seed, same incident, byte-identical
results — so the goodput deltas are attributable to the health
machinery alone.
"""

from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim, cell, ratio

#: Fraction of pool capacity offered during the incident.
STORM_LOAD = 0.6
#: When the storm hits (ms into the run) and how long the reboot lasts.
STORM_AT_MS = 300.0
STORM_RECOVERY_MS = 400.0
#: Steady per-batch fault rates swept with breakers on vs off.
DEFAULT_FAULT_RATES = (0.1, 0.2)


def _row(sweep, knob, result):
    opens = sum(entry["opens"] for entry in result.health)
    return (
        sweep, knob, result.offered,
        result.throughput_rps, result.goodput_rps,
        result.p99_ms, result.failed, result.redispatched, opens,
        result.brownout["degraded_requests"] if result.brownout else 0,
    )


CLAIMS = (
    Claim("breakers_over_off_goodput", "n/a", "> 1",
          ratio("mode", "goodput rps", "breakers", "off"),
          "in an outage, ejecting the rebooting backend beats queueing on it"),
    Claim("brownout_over_breakers_goodput", "n/a", ">= 1",
          ratio("mode", "goodput rps", "breakers+brownout", "breakers"),
          "degrading under the resulting backlog recovers more goodput"),
    Claim("storm_breaker_opens", "n/a", ">= 1",
          cell("mode", "breaker opens", "breakers"),
          "the incident trips the breaker"),
    Claim("storm_failed", "n/a", "= 0",
          lambda result: sum(result.series["storm_failed"]),
          "the redispatch budget covers one reboot: no request fails"),
)


@experiment("resilience", claims=CLAIMS)
def run(devices=2, duration_s=1.2, seed=3, slo_ms=100.0,
        fault_rates=DEFAULT_FAULT_RATES, max_batch=4, max_delay_ms=5.0,
        queue_capacity=128, policy="reject", calibration_runs=3,
        brownout_high=16, brownout_low=6):
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
    rate_rps = STORM_LOAD * capacity_rps

    def serve(**health_knobs):
        return run_service(
            ServiceConfig(
                rate_rps=rate_rps,
                duration_s=duration_s,
                slo_ms=slo_ms,
                queue_capacity=queue_capacity,
                policy=policy,
                max_batch=max_batch,
                max_delay_ms=max_delay_ms,
                devices=devices,
                seed=seed,
                **health_knobs,
            ),
            profiles=profiles,
        )

    storm = dict(
        ssr_storm_ms=STORM_AT_MS,
        ssr_storm_backends=1,
        ssr_recovery_ms=STORM_RECOVERY_MS,
        breaker_recovery_ms=STORM_RECOVERY_MS,
    )
    modes = (
        ("off", dict(storm, breakers=False)),
        ("breakers", dict(storm)),
        ("breakers+brownout", dict(
            storm, brownout_high=brownout_high, brownout_low=brownout_low,
        )),
    )

    rows = []
    series = {
        "storm_mode": [], "storm_goodput_rps": [], "storm_p99_ms": [],
        "storm_failed": [],
        "fault_rate": [], "rate_goodput_off_rps": [],
        "rate_goodput_on_rps": [],
    }
    for mode, knobs in modes:
        result = serve(**knobs)
        rows.append(_row("storm", mode, result))
        series["storm_mode"].append(mode)
        series["storm_goodput_rps"].append(result.goodput_rps)
        series["storm_p99_ms"].append(result.p99_ms)
        series["storm_failed"].append(result.failed)

    for rate in fault_rates:
        off = serve(backend_fault_rate=rate, breakers=False)
        on = serve(backend_fault_rate=rate)
        rows.append(_row("fault-rate", f"{rate:.2f} off", off))
        rows.append(_row("fault-rate", f"{rate:.2f} on", on))
        series["fault_rate"].append(rate)
        series["rate_goodput_off_rps"].append(off.goodput_rps)
        series["rate_goodput_on_rps"].append(on.goodput_rps)

    goodput_off = series["storm_goodput_rps"][0]
    goodput_on = series["storm_goodput_rps"][1]
    lift = (
        goodput_on / goodput_off if goodput_off > 0 else float("inf")
    )
    notes = [
        f"incident: SSR takes 1 of {len(profiles)} backends down for "
        f"{STORM_RECOVERY_MS:g} ms at t={STORM_AT_MS:g} ms, under "
        f"{STORM_LOAD:.0%}-capacity load ({rate_rps:.1f} rps)",
        f"breakers lift storm goodput {lift:.2f}x (from "
        f"{goodput_off:.1f} to {goodput_on:.1f} rps) by ejecting the "
        "rebooting backend instead of queueing behind it",
        "brownout additionally serves the backlog with the degraded "
        "model variant while outstanding work is above the high "
        "watermark",
        "the fault-rate sweep shows the flip side: under *memoryless* "
        "per-batch faults an eager breaker misfires — each random "
        "failure ejects a healthy backend and the lost capacity costs "
        "more than the avoided failures; breakers pay off for "
        "correlated outages (the storm), not white-noise ones",
    ]
    return ExperimentResult(
        experiment_id="resilience",
        title=(
            f"service resilience: SSR storm and backend faults over "
            f"{len(profiles)} backends (seed {seed}), {slo_ms:g} ms SLO"
        ),
        headers=(
            "sweep", "mode", "offered", "throughput rps", "goodput rps",
            "p99 ms", "failed", "redispatched", "breaker opens",
            "degraded",
        ),
        rows=rows,
        series=series,
        notes=notes,
    )
