"""Runtime sanitizer: clock invariants, tie audit, span accounting."""

import pytest

from repro.analysis.sanitize import collecting
from repro.sim.sanitizer import SanitizerError, audit_accounting
from repro.sim.engine import Simulator


# -- attachment ----------------------------------------------------------


def test_sanitize_flag_attaches_sanitizer():
    assert Simulator(sanitize=True).sanitizer is not None
    assert Simulator().sanitizer is None
    assert Simulator(sanitize=False).sanitizer is None


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator().sanitizer is not None
    # An explicit constructor argument still wins over the environment.
    assert Simulator(sanitize=False).sanitizer is None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Simulator().sanitizer is None


def test_collecting_forces_and_registers():
    with collecting() as collector:
        sim = Simulator()
        assert sim.sanitizer is not None
        sim.timeout(1.0, name="tick")
        sim.run()
    assert collector.sanitizers == [sim.sanitizer]
    assert collector.event_count() == 1
    # The forced default is restored on scope exit.
    assert Simulator().sanitizer is None


# -- clock invariants ----------------------------------------------------


def test_scheduling_into_the_past_raises():
    # Timeout() rejects negative delays itself, so go through the raw
    # scheduling path a buggy event class would use.
    sim = Simulator(sanitize=True)
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SanitizerError, match="past"):
        sim._schedule(sim.event(), delay=-1.0)


def test_backwards_pop_raises():
    sim = Simulator(sanitize=True)
    sim.now = 10.0
    with pytest.raises(SanitizerError, match="backwards"):
        sim.sanitizer.on_pop(5.0, 1, 0, sim.event())


# -- tie audit -----------------------------------------------------------


def test_tie_groups_record_equal_time_priority_runs():
    sim = Simulator(sanitize=True)
    sim.timeout(1.0, name="solo")
    sim.timeout(5.0, name="a")
    sim.timeout(5.0, name="b")
    sim.timeout(5.0, name="c")
    sim.run()
    assert len(sim.sanitizer.ties) == 1
    assert [record.label for record in sim.sanitizer.ties[0]] == [
        "a", "b", "c",
    ]
    assert len(sim.sanitizer.stream.records) == 4


def test_audit_reports_events_ties_and_digest():
    sim = Simulator(trace=True, sanitize=True)
    sim.timeout(3.0, name="x")
    sim.timeout(3.0, name="y")
    sim.run()
    report = sim.sanitizer.audit()
    assert report["events"] == 2
    assert report["ties"] == 1
    assert len(report["digest"]) == 64


def test_digest_is_deterministic_across_fresh_simulators():
    def run_once():
        sim = Simulator(seed=3, sanitize=True)
        for index in range(4):
            sim.timeout(float(index % 2), name=f"e{index}")
        sim.run()
        return sim.sanitizer.stream.digest()

    assert run_once() == run_once()


# -- span invariants -----------------------------------------------------


def test_negative_span_duration_raises():
    sim = Simulator(trace=True, sanitize=True)
    with pytest.raises(SanitizerError, match="negative span"):
        sim.trace.record("cpu0", "bad", 10.0, 4.0)


def test_end_before_begin_raises():
    sim = Simulator(trace=True, sanitize=True)
    sim.now = 8.0
    span = sim.trace.begin("cpu0", "work")
    sim.now = 2.0
    with pytest.raises(SanitizerError, match="negative span"):
        sim.trace.end(span)


# -- resource accounting -------------------------------------------------


def test_accounting_conserves_busy_plus_idle():
    sim = Simulator(trace=True)
    sim.trace.record("cpu0", "outer", 0.0, 10.0)
    sim.trace.record("cpu0", "inner", 2.0, 8.0)
    sim.trace.record("binder", "ignored-soft-track", 0.0, 99.0)
    report = audit_accounting(sim.trace, 20.0)
    assert set(report) == {"cpu0"}
    assert report["cpu0"]["busy_us"] == pytest.approx(10.0)
    assert report["cpu0"]["idle_us"] == pytest.approx(10.0)
    assert report["cpu0"]["elapsed_us"] == pytest.approx(20.0)


def test_audit_rejects_a_negative_span():
    # Unsanitized, no span-close hook raises first: the audit meets it.
    sim = Simulator(trace=True, sanitize=False)
    sim.trace.record("cpu0", "bad", 10.0, 4.0)
    with pytest.raises(SanitizerError, match="negative span"):
        audit_accounting(sim.trace, 20.0)


def test_partially_overlapping_spans_raise():
    sim = Simulator(trace=True)
    sim.trace.record("cpu0", "a", 0.0, 10.0)
    sim.trace.record("cpu0", "b", 5.0, 15.0)
    with pytest.raises(SanitizerError, match="overlapping"):
        audit_accounting(sim.trace, 20.0)


def test_negative_elapsed_fails_the_busy_audit():
    # Busy time is clipped to [0, elapsed], so only a negative elapsed
    # can leave busy above it.
    sim = Simulator(trace=True)
    sim.trace.record("cpu0", "work", 0.0, 10.0)
    with pytest.raises(SanitizerError, match="busy time exceeds elapsed"):
        audit_accounting(sim.trace, -1.0)


def test_span_past_end_of_run_is_clipped_not_fatal():
    sim = Simulator(trace=True)
    sim.trace.record("gpu", "tail", 0.0, 30.0)
    report = audit_accounting(sim.trace, 20.0)
    assert report["gpu"]["busy_us"] == pytest.approx(20.0)
    assert report["gpu"]["idle_us"] == pytest.approx(0.0)


# -- engine-scoped ids ---------------------------------------------------


def test_next_id_is_engine_scoped_and_named():
    first, second = Simulator(), Simulator()
    assert [first.next_id("req") for _ in range(3)] == [0, 1, 2]
    # A fresh simulator starts from zero — no process-global bleed.
    assert second.next_id("req") == 0
    # Streams are independent per name.
    assert first.next_id("other") == 0
