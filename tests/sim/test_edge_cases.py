"""Edge-case tests for the simulation kernel."""

import pytest

from repro.sim import Resource, Simulator


def test_run_until_event_drained_queue_raises():
    sim = Simulator()
    never = sim.event("never")
    with pytest.raises(RuntimeError, match="drained"):
        sim.run(until=never)


def test_run_until_failed_event_raises_its_exception():
    sim = Simulator()
    target = sim.event("target")
    error = ValueError("target failed")
    sim.schedule_callback(1.0, lambda _e: target.fail(error))
    sim.schedule_callback(5.0, lambda _e: None)
    with pytest.raises(ValueError) as raised:
        sim.run(until=target)
    assert raised.value is error
    # The loop stopped on the pop that processed the failed target; the
    # later event is still queued.
    assert sim.now == 1.0
    assert sim.peek() == 5.0


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(RuntimeError, match="not been triggered"):
        event.value


def test_event_value_after_fail_reraises():
    sim = Simulator()
    event = sim.event()
    event.fail(ValueError("boom"))
    sim.run()
    with pytest.raises(ValueError, match="boom"):
        event.value


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError, match="generator"):
        sim.process(lambda: None)


def test_resource_release_of_foreign_request_raises():
    sim = Simulator()
    first = Resource(sim, capacity=1)
    second = Resource(sim, capacity=1)
    request = first.request()
    sim.run()
    with pytest.raises(ValueError, match="never granted"):
        second.release(request)


def test_resource_cancel_waiting_request():
    """Releasing a not-yet-granted request withdraws it from the queue."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    holder = resource.request()
    waiter = resource.request()
    sim.run()
    assert resource.queue_length == 1
    waiter.release()  # cancel while still queued
    assert resource.queue_length == 0
    holder.release()
    # The withdrawn request must not be granted.
    assert resource.in_use == 0
    assert not waiter.granted


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()

    def body():
        result = yield sim.all_of([])
        return result

    assert sim.run(until=sim.process(body())) == {}


def test_all_of_propagates_child_failure():
    sim = Simulator()
    bad = sim.event()

    def body():
        with pytest.raises(RuntimeError, match="child"):
            yield sim.all_of([sim.timeout(5), bad])
        return "survived"

    def failer():
        yield sim.timeout(1)
        bad.fail(RuntimeError("child"))

    proc = sim.process(body())
    sim.process(failer())
    assert sim.run(until=proc) == "survived"


def test_timeout_carries_value():
    sim = Simulator()

    def body():
        value = yield sim.timeout(3, value="payload")
        return value

    assert sim.run(until=sim.process(body())) == "payload"


def test_trace_open_span_has_nan_end():
    sim = Simulator(trace=True)
    span = sim.trace.begin("x", "open")
    assert not span.closed
    sim.trace.end(span)
    assert span.closed
