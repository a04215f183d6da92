"""Event-queue semantics the optimized run loop must preserve.

The engine's inlined run loop and lazily-rendered event names (see
``docs/performance.md``) are required to be *observably free*: same
popped-event stream, same timestamps, same labels. These tests pin the
semantics the optimizations lean on.
"""

import gc

import pytest

from repro.analysis.engine_bench import fleet_replay_digest
from repro.sim import Simulator
from repro.sim.events import Event, Timeout


# -- ordering -----------------------------------------------------------


def test_same_time_orders_by_priority_then_sequence():
    sim = Simulator(seed=0)
    order = []
    normal_a = sim.event(name="normal_a")
    normal_a.callbacks.append(lambda e: order.append(e.name))
    normal_a.succeed()
    urgent = sim.event(name="urgent")
    urgent.callbacks.append(lambda e: order.append(e.name))
    urgent._state = "triggered"
    sim._schedule(urgent, priority=sim.PRIORITY_URGENT)
    normal_b = sim.event(name="normal_b")
    normal_b.callbacks.append(lambda e: order.append(e.name))
    normal_b.succeed()
    sim.run()
    # Urgent first despite being scheduled second; equal (time, priority)
    # resolves by schedule order (sequence), not creation order.
    assert order == ["urgent", "normal_a", "normal_b"]


def test_sequence_assigned_at_schedule_time_not_creation_time():
    sim = Simulator(seed=0)
    order = []
    late = sim.event(name="created_first_scheduled_last")
    early = sim.event(name="created_last_scheduled_first")
    early.callbacks.append(lambda e: order.append(e.name))
    late.callbacks.append(lambda e: order.append(e.name))
    early.succeed()
    late.succeed()
    sim.run()
    assert order == [
        "created_last_scheduled_first", "created_first_scheduled_last",
    ]


def test_timeouts_fire_in_time_order_with_fifo_ties():
    sim = Simulator(seed=0)
    fired = []
    for index, delay in enumerate((30.0, 10.0, 10.0, 20.0)):
        sim.schedule_callback(
            delay, (lambda i: lambda _e: fired.append(i))(index)
        )
    sim.run()
    assert fired == [1, 2, 3, 0]
    assert sim.now == 30.0


# -- lazy default names -------------------------------------------------


def test_timeout_default_name_renders_lazily_and_byte_identically():
    sim = Simulator(seed=0)
    timeout = Timeout(sim, 3000.0)
    # No string has been rendered yet...
    assert timeout._name is None
    # ...and the lazy rendering is byte-identical to the eager form the
    # replay digest was built on.
    assert timeout.name == f"timeout({3000.0})"
    assert timeout.name == "timeout(3000.0)"


def test_timeout_explicit_name_wins_over_default():
    sim = Simulator(seed=0)
    assert Timeout(sim, 5.0, name="slice").name == "slice"


def test_plain_event_default_name_is_none():
    sim = Simulator(seed=0)
    assert Event(sim).name is None


# -- run-loop housekeeping ----------------------------------------------


#: Every mode of the one run loop: drain (``run()``), a time bound
#: (``run(until=<time>)``) and stop-on-event (``run(until=event)``),
#: which every pipeline, fleet session and experiment uses.
RUN_MODES = pytest.mark.parametrize(
    "mode", ["drain", "until_time", "until_event"]
)


def _until(mode, target):
    """The ``until`` argument of ``mode`` for a ``target`` due at 1.0."""
    return {"drain": None, "until_time": 1.0, "until_event": target}[mode]


@RUN_MODES
def test_run_restores_gc_state_even_on_callback_error(mode):
    assert gc.isenabled()
    sim = Simulator(seed=0)

    def boom(_event):
        assert not gc.isenabled(), "run loop should pause cyclic GC"
        raise ValueError("boom")

    target = sim.schedule_callback(1.0, boom)
    with pytest.raises(ValueError):
        sim.run(until=_until(mode, target))
    assert gc.isenabled()


@RUN_MODES
def test_run_leaves_disabled_gc_disabled(mode):
    sim = Simulator(seed=0)
    target = sim.timeout(1.0)
    gc.disable()
    try:
        sim.run(until=_until(mode, target))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_run_until_time_pops_the_deadline_and_stops_the_clock_there():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule_callback(2.0, lambda _e: fired.append("at"))
    sim.schedule_callback(3.0, lambda _e: fired.append("after"))
    assert sim.run(until=2.0) is None
    # An event exactly at the deadline pops; a later one stays queued.
    assert fired == ["at"]
    assert sim.now == 2.0
    assert sim.peek() == 3.0
    # The clock ends at the deadline even when the queue drains first.
    sim.run(until=10.0)
    assert fired == ["at", "after"]
    assert sim.now == 10.0
    assert sim.peek() == float("inf")


def test_run_until_event_stops_with_later_events_still_queued():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule_callback(1.0, lambda _e: fired.append("before"))
    target = sim.timeout(2.0, value="v")
    target.callbacks.append(lambda _e: fired.append("target"))
    sim.schedule_callback(2.0, lambda _e: fired.append("tie"))
    sim.schedule_callback(3.0, lambda _e: fired.append("after"))
    assert sim.run(until=target) == "v"
    # The loop stops on the pop that processes the target: an event at
    # the same time scheduled after it is still queued, and so is the
    # later one.
    assert fired == ["before", "target"]
    assert sim.now == 2.0
    assert sim.peek() == 2.0
    assert len(sim._queue) == 2
    sim.run()
    assert fired == ["before", "target", "tie", "after"]
    assert sim.now == 3.0


def test_run_until_a_processed_event_returns_its_outcome_without_popping():
    sim = Simulator(seed=0)
    target = sim.timeout(5.0, value=7)
    assert sim.run(until=target) == 7
    sim.timeout(1.0)
    # Already processed: the outcome comes back at once, and the later
    # timeout stays queued with the clock where it was.
    assert sim.run(until=target) == 7
    assert sim.now == 5.0 and len(sim._queue) == 1
    failed = sim.event()
    failed.fail(KeyError("lost"))
    with pytest.raises(KeyError):
        sim.run(until=failed)
    with pytest.raises(KeyError):
        sim.run(until=failed)
    assert sim.now == 5.0 and len(sim._queue) == 1


def test_processed_event_drops_callback_list():
    sim = Simulator(seed=0)
    timeout = sim.timeout(1.0)
    sim.run()
    assert timeout.callbacks is None
    # A late append is a loud error, not a silent no-op.
    with pytest.raises(AttributeError):
        timeout.callbacks.append(lambda _e: None)


# -- restarted timeouts -------------------------------------------------


def test_restart_raises_while_the_timeout_is_scheduled():
    sim = Simulator(seed=0)
    timeout = sim.timeout(1.0)
    with pytest.raises(RuntimeError, match="still scheduled"):
        timeout.restart(2.0, lambda _e: None)
    assert len(sim._queue) == 1


def test_restart_rejects_a_negative_delay():
    sim = Simulator(seed=0)
    timeout = sim.timeout(1.0)
    sim.run()
    with pytest.raises(ValueError, match="negative timeout delay"):
        timeout.restart(-1.0, lambda _e: None)
    assert timeout.processed and not sim._queue


def _timer_chain(restart):
    """A sanitized run of three back-to-back waits, each re-arming one
    timeout or allocating a fresh one, beside a bystander timeout."""
    sim = Simulator(seed=0, sanitize=True)
    fired = []

    def wait(event, delay, then):
        if restart:
            event.restart(delay, then)
        else:
            sim.timeout(delay).callbacks.append(then)

    def last(event):
        fired.append((sim.now, event))

    first = sim.timeout(5.0)
    first.callbacks.append(
        lambda event: wait(event, 7.0, lambda e: wait(e, 0.0, last))
    )
    sim.timeout(6.0)
    sim.run()
    return sim, first, fired


def test_restarted_timeout_schedules_like_a_new_one():
    sim, first, fired = _timer_chain(restart=True)
    records = [
        (r.time, r.priority, r.sequence, r.label)
        for r in sim.sanitizer.stream.records
    ]
    assert records == [
        (5.0, 1, 0, "timeout(5.0)"),
        (6.0, 1, 1, "timeout(6.0)"),
        (12.0, 1, 2, "timeout(7.0)"),
        (12.0, 1, 3, "timeout(0.0)"),
    ]
    assert fired == [(12.0, first)]
    fresh, _first, _fired = _timer_chain(restart=False)
    assert sim.sanitizer.stream.digest() == fresh.sanitizer.stream.digest()


def test_restarted_timeout_drops_its_callback_list_at_pop():
    sim = Simulator(seed=0)
    timeout = sim.timeout(1.0)
    sim.run()
    fired = []
    timeout.restart(2.0, fired.append)
    assert timeout.triggered and not timeout.processed
    assert timeout.callbacks == [fired.append]
    sim.run()
    assert fired == [timeout] and sim.now == 3.0
    assert timeout.callbacks is None
    with pytest.raises(AttributeError):
        timeout.callbacks.append(lambda _e: None)


def test_bootstrap_schedules_the_start_event_of_a_process():
    # A callback loop started through bootstrap pops exactly as a
    # generator process of the same name starts: urgent, at the current
    # time, ahead of a normal event scheduled before it.
    def body():
        return
        yield

    sim = Simulator(seed=0, sanitize=True)
    sim.timeout(0.0)
    fired = []
    start = sim.bootstrap("loop", fired.append)
    sim.process(body(), name="proc")
    sim.run()
    records = [
        (r.time, r.priority, r.sequence, r.label)
        for r in sim.sanitizer.stream.records
    ]
    assert records == [
        (0.0, 0, 1, "loop:start"),
        (0.0, 0, 2, "proc:start"),
        (0.0, 1, 0, "timeout(0.0)"),
        (0.0, 1, 3, "proc"),
    ]
    assert fired == [start]


# -- conditions ---------------------------------------------------------


def test_any_of_detaches_from_the_child_that_lost():
    sim = Simulator(seed=0, sanitize=True)
    deadline = sim.timeout(1.0)
    wakeup = sim.event(name="wakeup")
    fired = []
    sim.any_of([deadline, wakeup]).callbacks.append(fired.append)
    sim.run()
    assert len(fired) == 1
    # The losing child no longer holds the condition ...
    assert wakeup.callbacks == []
    # ... so succeeding it later pops only its own event.
    wakeup.succeed()
    sim.run()
    assert len(fired) == 1
    assert [r.label for r in sim.sanitizer.stream.records] == [
        "timeout(1.0)", "any_of", "wakeup",
    ]


def test_all_of_detaches_from_the_rest_when_a_child_fails():
    sim = Simulator(seed=0)
    first, second = sim.event(), sim.event()
    later = sim.timeout(5.0)
    condition = sim.all_of([first, second, later])
    first.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=condition)
    assert second.callbacks == [] and later.callbacks == []
    assert sim.peek() == 5.0


def test_any_of_over_a_processed_child_triggers_in_its_constructor():
    sim = Simulator(seed=0)
    processed = sim.timeout(0.0, value="v")
    sim.run()
    pending = sim.event()
    condition = sim.any_of([processed, pending])
    assert condition.triggered
    assert pending.callbacks == []
    sim.run()
    assert condition.value == {0: "v"}


# -- determinism under the sanitizer ------------------------------------


def test_seeded_fleet_dual_run_digest_is_stable():
    """The PR-4 sanitizer sees identical popped-event streams twice.

    ``fleet_replay_digest`` itself runs the workload twice and raises
    on divergence; calling it twice additionally pins that the digest
    is stable across repeated in-process measurements (no leaked
    global state between fleets).
    """
    first = fleet_replay_digest(sessions=3, runs=2, seed=0)
    second = fleet_replay_digest(sessions=3, runs=2, seed=0)
    assert first == second
    assert first["events"] > 0
