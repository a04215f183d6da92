"""Dual-run replay digests: real scenarios replay bit-identically, and
an injected insertion-order nondeterminism is localized to its first
divergent event (and labelled as a tiebreak, not a logic change)."""

from repro.analysis.sanitize import collecting, dual_run
from repro.experiments import run_experiment
from repro.fleet import run_fleet
from repro.observability.scenarios import record_trace
from repro.sim.engine import Simulator


def test_fig7_experiment_replays_identically():
    report = dual_run(lambda: run_experiment("fig7"))
    assert report.identical
    assert report.events > 0
    assert "IDENTICAL" in report.render()


def _chaos_scenario():
    with record_trace("chaos", runs=2, seed=0):
        pass


def test_chaos_scenario_replays_identically():
    report = dual_run(_chaos_scenario)
    assert report.identical
    assert report.events > 0


def test_small_fleet_replays_identically():
    report = dual_run(
        lambda: run_fleet(sessions=2, workers=1, seed=0, runs=2)
    )
    assert report.identical
    assert report.events > 0


# -- artificial divergence -----------------------------------------------


def _tiebreak_scenario(order):
    """Two same-timestamp events whose only ordering is insertion order —
    the exact signature of iterating an unordered container while
    scheduling."""
    sim = Simulator(seed=0)
    sim.timeout(1.0, name="lead")
    for label in order:
        sim.timeout(5.0, name=label)
    sim.run()


def test_divergent_tiebreak_is_localized_to_first_event():
    with collecting() as first:
        _tiebreak_scenario(["x", "y"])
    with collecting() as second:
        _tiebreak_scenario(["y", "x"])
    assert first.combined_digest() != second.combined_digest()
    divergence = first.first_divergence(second)
    assert divergence["stream"] == 0
    # Event 0 is the lead timeout in both runs; the first tied event is
    # where the replays disagree.
    assert divergence["index"] == 1
    assert divergence["tie"] is True
    assert {divergence["left"].label, divergence["right"].label} == {"x", "y"}


def test_dual_run_report_names_the_tiebreak():
    orders = iter([["x", "y"], ["y", "x"]])
    report = dual_run(lambda: _tiebreak_scenario(next(orders)))
    assert not report.identical
    rendered = report.render()
    assert "DIVERGED" in rendered
    assert "event #1" in rendered
    assert "insertion" in rendered


def test_identical_runs_have_no_divergence():
    with collecting() as first:
        _tiebreak_scenario(["x", "y"])
    with collecting() as second:
        _tiebreak_scenario(["x", "y"])
    assert first.first_divergence(second) is None
    assert first.combined_digest() == second.combined_digest()
