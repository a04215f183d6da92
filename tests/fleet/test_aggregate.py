"""Fleet aggregation: slices, percentiles, and the paper shapes."""

import pytest

from repro.experiments import REGISTRY, run_experiment
from repro.fleet import FleetResult, aggregate_fleet, run_fleet


def test_aggregate_slices_cover_every_session():
    fleet = run_fleet(sessions=24, workers=1, seed=0, runs=4)
    aggregate = aggregate_fleet(fleet)
    assert aggregate.sessions == 24
    assert sum(s.sessions for s in aggregate.by_context.values()) == 24
    assert sum(s.sessions for s in aggregate.by_soc.values()) == 24
    assert sum(s.sessions for s in aggregate.by_model.values()) == 24
    # Cold start pools exactly one run per session; steady the rest.
    assert aggregate.cold.runs == 24
    assert aggregate.steady.runs == 24 * 3


def test_aggregate_rejects_an_empty_fleet():
    with pytest.raises(ValueError, match="cannot aggregate an empty fleet"):
        aggregate_fleet(FleetResult(seed=0, workers=1))


def test_aggregate_percentiles_ordered():
    aggregate = aggregate_fleet(run_fleet(sessions=16, seed=1, runs=4))
    for stats in (
        aggregate.overall,
        *aggregate.by_context.values(),
        *aggregate.by_soc.values(),
        *aggregate.by_model.values(),
    ):
        assert stats.p50_ms <= stats.p90_ms <= stats.p99_ms
        assert stats.tail_ratio >= 1.0


def test_fleet_percentiles_experiment_registered():
    assert "fleet_percentiles" in REGISTRY


def test_experiment_render_includes_notes():
    result = run_experiment("fleet_percentiles", sessions=12, runs=3, seed=2)
    slices = result.column("slice")
    assert "fleet" in slices and "cold-start" in slices
    rendered = result.render()
    assert "Takeaway 1" in rendered
    assert "Fig 11" in rendered
    assert "simulated 12 sessions" in rendered
