"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def body():
        yield sim.timeout(50)
        return sim.now

    proc = sim.process(body())
    result = sim.run(until=proc)
    assert result == 50
    assert sim.now == 50


def test_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def worker(name, delay):
        yield sim.timeout(delay)
        order.append((name, sim.now))

    sim.process(worker("a", 30))
    sim.process(worker("b", 10))
    sim.process(worker("c", 20))
    sim.run()
    assert order == [("b", 10), ("c", 20), ("a", 30)]


def test_simultaneous_events_run_in_schedule_order():
    sim = Simulator()
    order = []

    def worker(name):
        yield sim.timeout(5)
        order.append(name)

    for name in "abcd":
        sim.process(worker(name))
    sim.run()
    assert order == list("abcd")


def test_process_return_value_propagates():
    sim = Simulator()

    def inner():
        yield sim.timeout(1)
        return 42

    def outer():
        value = yield sim.process(inner())
        return value + 1

    assert sim.run(until=sim.process(outer())) == 43


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(10)

    sim.process(ticker())
    sim.run(until=95)
    assert sim.now == 95


def test_run_until_past_time_raises():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(ValueError):
        sim.run(until=5)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event("gate")
    seen = []

    def waiter():
        value = yield gate
        seen.append((sim.now, value))

    def opener():
        yield sim.timeout(7)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert seen == [(7, "open")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        with pytest.raises(RuntimeError, match="boom"):
            yield gate
        return "handled"

    def opener():
        yield sim.timeout(1)
        gate.fail(RuntimeError("boom"))

    proc = sim.process(waiter())
    sim.process(opener())
    assert sim.run(until=proc) == "handled"


def test_double_trigger_raises():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(RuntimeError):
        gate.succeed(2)


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def body():
        result = yield sim.all_of([sim.timeout(5, value="x"), sim.timeout(9, value="y")])
        return (sim.now, sorted(result.values()))

    assert sim.run(until=sim.process(body())) == (9, ["x", "y"])


def test_any_of_returns_at_first_event():
    sim = Simulator()

    def body():
        yield sim.any_of([sim.timeout(5), sim.timeout(9)])
        return sim.now

    assert sim.run(until=sim.process(body())) == 5


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad():
        yield 5

    sim.process(bad())
    with pytest.raises(TypeError, match="expected an Event"):
        sim.run()


@pytest.mark.parametrize("failed", [False, True], ids=["succeeded", "failed"])
def test_waiting_on_already_processed_event_resumes_at_now(failed):
    sim = Simulator(sanitize=True)
    gate = sim.event(name="gate")
    payload, error = object(), ValueError("gate failed")
    if failed:
        gate.fail(error)
    else:
        gate.succeed(payload)
    sim.run(until=5.0)  # process the event; the clock moves past it

    def late():
        try:
            value = yield gate
        except ValueError as exc:
            value = exc
        return (sim.now, value)

    now, value = sim.run(until=sim.process(late(), name="late"))
    # The body resumes at the current time, through the relay, with the
    # event's value or with its exception raised at the yield.
    assert now == 5.0
    assert value is (error if failed else payload)
    assert [r.label for r in sim.sanitizer.stream.records] == [
        "gate", "late:start", "late:relay", "late",
    ]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(33)
    assert sim.peek() == 33
