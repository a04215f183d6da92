"""Fleet-level AI-tax aggregation: percentiles, slices, cold vs steady.

Pools per-iteration measurements across every session of a fleet run
and reduces them to the population statistics the paper's single-device
figures only hint at: p50/p90/p99 end-to-end latency per packaging,
SoC, and model slice; the cold-start vs steady-state split (Fig. 8 at
population scale); the app-vs-benchmark tail ratio (Fig. 11); and the
quantized-app capture+pre+post share (Takeaway 1).
"""

from dataclasses import dataclass, field

from repro.core import percentile, percentiles
from repro.core.result import ExperimentResult
from repro.fleet.session import STAGE_FIELDS, SessionResult
from repro.sim import units


@dataclass
class SliceStats:
    """Latency percentiles of one fleet slice (pooled steady-state runs).

    ``p50/p90/p99`` are absolute end-to-end percentiles over the pooled
    runs — they reflect the slice's workload mix as well as its
    variability. ``tail_ratio`` is the run-to-run p99/p50 over
    *session-median-normalized* latencies, which isolates the Fig.-11
    phenomenon (how much one device swings between identical runs) from
    the cross-device mix.
    """

    name: str
    sessions: int
    runs: int
    p50_ms: float
    p90_ms: float
    p99_ms: float
    tail_ratio: float

    def as_row(self):
        return (
            self.name, self.sessions, self.runs,
            self.p50_ms, self.p90_ms, self.p99_ms, self.tail_ratio,
        )


def _slice_stats(name, results, runs_of=None):
    """Pooled percentile stats over ``results``.

    ``runs_of`` selects which iterations of a session to pool; the
    default is the steady-state runs (cold start excluded).
    """
    if runs_of is None:
        runs_of = lambda result: result.steady_runs  # noqa: E731
    totals_ms = []
    normalized = []
    for result in results:
        session_ms = [
            units.to_ms(SessionResult.total_us(run))
            for run in runs_of(result)
        ]
        totals_ms.extend(session_ms)
        session_median = percentile(session_ms, 0.5) if session_ms else 0.0
        if session_median > 0:
            normalized.extend(value / session_median for value in session_ms)
    norm_p50, norm_p99 = percentiles(normalized, (0.50, 0.99))
    p50_ms, p90_ms, p99_ms = percentiles(totals_ms, (0.50, 0.90, 0.99))
    return SliceStats(
        name=name,
        sessions=len(results),
        runs=len(totals_ms),
        p50_ms=p50_ms,
        p90_ms=p90_ms,
        p99_ms=p99_ms,
        tail_ratio=norm_p99 / norm_p50 if norm_p50 > 0 else 0.0,
    )


def _mean_stage_fraction(results, stages, runs_of=None):
    """Mean fraction of end-to-end time spent in ``stages``, pooled."""
    if runs_of is None:
        runs_of = lambda result: result.steady_runs  # noqa: E731
    fractions = [
        sum(run[stage] for stage in stages) / SessionResult.total_us(run)
        for result in results
        for run in runs_of(result)
        if SessionResult.total_us(run) > 0
    ]
    return sum(fractions) / len(fractions) if fractions else 0.0


def _grouped(results, key):
    groups = {}
    for result in results:
        groups.setdefault(key(result.spec), []).append(result)
    return groups


@dataclass
class FleetAggregate:
    """All fleet-level statistics of one :class:`FleetResult`."""

    sessions: int
    seed: int
    overall: SliceStats
    by_context: dict
    by_soc: dict
    by_model: dict
    cold: SliceStats
    steady: SliceStats
    #: Mean capture+pre+post share of end-to-end time over the quantized
    #: accelerated-app slice (int8 + app + nnapi, with fallbacks).
    quantized_app_tax_fraction: float
    #: Mean non-inference share of end-to-end time, whole fleet.
    fleet_tax_fraction: float
    notes: list = field(default_factory=list)
    #: Sessions excluded because their simulation died (chaos runs).
    failed_sessions: int = 0

    @property
    def cold_start_penalty(self):
        """Cold-start p50 over steady-state p50."""
        if self.steady.p50_ms <= 0:
            return 0.0
        return self.cold.p50_ms / self.steady.p50_ms

    def tail_ratio(self, context):
        return self.by_context[context].tail_ratio

    def to_experiment_result(self):
        """Render as an :class:`ExperimentResult` like every other figure."""
        headers = (
            "slice", "sessions", "runs",
            "p50 ms", "p90 ms", "p99 ms", "rr p99/p50",
        )
        rows = [self.overall.as_row()]
        for group in (self.by_context, self.by_soc, self.by_model):
            for name in sorted(group):
                rows.append(group[name].as_row())
        rows.append(self.cold.as_row())
        rows.append(self.steady.as_row())
        series = {
            "app_tail_ratio": [self.by_context["context:app"].tail_ratio]
            if "context:app" in self.by_context else [],
            "benchmark_tail_ratio": [self.by_context["context:cli"].tail_ratio]
            if "context:cli" in self.by_context else [],
            "quantized_app_tax_fraction": [self.quantized_app_tax_fraction],
            "fleet_tax_fraction": [self.fleet_tax_fraction],
            "cold_start_penalty": [self.cold_start_penalty],
        }
        return ExperimentResult(
            experiment_id="fleet_percentiles",
            title=(
                f"fleet of {self.sessions} device sessions (seed "
                f"{self.seed}): end-to-end latency percentiles"
            ),
            headers=headers,
            rows=rows,
            series=series,
            notes=list(self.notes),
        )


def aggregate_fleet(fleet):
    """Reduce a :class:`~repro.fleet.runner.FleetResult` to statistics.

    Failed sessions (structured-error results from a chaos run) are
    excluded from every statistic and reported via
    ``failed_sessions``/notes; a fleet where *every* session failed
    cannot be aggregated.
    """
    all_results = list(fleet.results)
    results = [result for result in all_results if result.ok]
    failed = len(all_results) - len(results)
    if not results:
        if failed:
            raise ValueError(
                f"cannot aggregate: all {failed} fleet sessions failed"
            )
        raise ValueError("cannot aggregate an empty fleet")

    # sorted(...) so slice order is the group name, not the order the
    # sessions happened to arrive in — the slices reach rendered rows.
    by_context = {
        f"context:{name}": _slice_stats(f"context:{name}", group)
        for name, group in sorted(
            _grouped(results, lambda s: s.context).items()
        )
    }
    by_soc = {
        f"soc:{name}": _slice_stats(f"soc:{name}", group)
        for name, group in sorted(
            _grouped(results, lambda s: s.soc).items()
        )
    }
    by_model = {
        name: _slice_stats(name, group)
        for name, group in sorted(
            _grouped(
                results, lambda s: f"model:{s.model_key}[{s.dtype}]"
            ).items()
        )
    }

    # Takeaway 1 is about *accelerated* quantized apps (inference on the
    # DSP via NNAPI leaves capture+pre+post dominating). Fall back to
    # progressively wider quantized slices when a small fleet has no
    # NNAPI app sessions.
    for predicate in (
        lambda s: s.dtype == "int8" and s.context == "app"
        and s.target == "nnapi",
        lambda s: s.dtype == "int8" and s.context == "app",
        lambda s: s.dtype == "int8",
    ):
        quantized_app = [r for r in results if predicate(r.spec)]
        if quantized_app:
            break
    quantized_app_tax = _mean_stage_fraction(
        quantized_app, ("capture_us", "pre_us", "post_us")
    )
    fleet_tax = _mean_stage_fraction(
        results, tuple(f for f in STAGE_FIELDS if f != "inference_us")
    )

    aggregate = FleetAggregate(
        sessions=len(results),
        seed=fleet.seed,
        overall=_slice_stats("fleet", results),
        by_context=by_context,
        by_soc=by_soc,
        by_model=by_model,
        cold=_slice_stats(
            "cold-start", results, runs_of=lambda r: [r.cold_run]
        ),
        steady=_slice_stats("steady-state", results),
        quantized_app_tax_fraction=quantized_app_tax,
        fleet_tax_fraction=fleet_tax,
        failed_sessions=failed,
    )
    aggregate.notes = _shape_notes(aggregate)
    return aggregate


def _shape_notes(aggregate):
    """The paper-shape observations, stated against the aggregate."""
    notes = []
    app = aggregate.by_context.get("context:app")
    cli = aggregate.by_context.get("context:cli")
    if app is not None and cli is not None:
        relation = ">" if app.tail_ratio > cli.tail_ratio else "<="
        notes.append(
            f"Fig 11 shape: app p99/p50 {app.tail_ratio:.2f} {relation} "
            f"benchmark p99/p50 {cli.tail_ratio:.2f} (heavy app tail)"
        )
    notes.append(
        "Takeaway 1: quantized app slice spends "
        f"{aggregate.quantized_app_tax_fraction:.1%} of end-to-end time in "
        "capture+pre+post (paper: ~50%)"
    )
    notes.append(
        f"cold-start p50 is {aggregate.cold_start_penalty:.2f}x "
        "steady-state p50"
    )
    if aggregate.failed_sessions:
        notes.append(
            f"partial fleet: {aggregate.failed_sessions} sessions died "
            "and are excluded from every statistic"
        )
    return notes
