"""The simulation engine: clock, schedule, and run loop.

Hot-path notes (see ``docs/performance.md``): the schedule is a binary
heap of ``(time, priority, sequence, event)`` entries; :meth:`Simulator.run`
pops and dispatches in one loop with local bindings, because it retires
tens of thousands of events per simulated session. That one loop serves
every run mode: a drain, a time bound and a stop-on-event.
:meth:`Simulator.schedule_now` pushes a batch of triggered events in one
call, for the kernel's wake-all.
"""

import gc
from heapq import heappop, heappush
import os

from repro.sim.events import PROCESSED, TRIGGERED, Event, AllOf, AnyOf, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder

#: Process-local override for sanitizing new simulators; toggled via
#: :func:`set_sanitize_default` (on the ``repro.sim`` surface) by
#: ``repro.analysis.sanitize.collecting`` and the CLI ``--sanitize``
#: flags. The ``REPRO_SANITIZE`` environment variable has the same
#: effect without touching code.
_SANITIZE_DEFAULT = False


def set_sanitize_default(enabled):
    """Make new simulators attach a sanitizer; returns the old value."""
    global _SANITIZE_DEFAULT
    previous = _SANITIZE_DEFAULT
    _SANITIZE_DEFAULT = bool(enabled)
    return previous


def sanitize_enabled():
    """Whether a new Simulator should sanitize by default."""
    if _SANITIZE_DEFAULT:
        return True
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class Simulator:
    """Deterministic discrete-event simulator.

    The schedule is a heap of ``(time, priority, sequence, event)`` entries.
    The sequence number breaks ties so that events scheduled earlier run
    earlier, which keeps runs bit-for-bit reproducible.

    Parameters
    ----------
    seed:
        Root seed for the named RNG streams available as :attr:`rng`.
    trace:
        When True, a :class:`TraceRecorder` collects spans and counters.
    sanitize:
        When True, attach a :class:`~repro.sim.sanitizer.Sanitizer`
        that checks run-loop invariants and records the event-stream
        replay digest. ``None`` (the default) defers to
        :func:`sanitize_enabled` — the ``REPRO_SANITIZE`` environment
        variable or an active ``--sanitize`` / dual-run scope.
    """

    #: Priority for ordinary events.
    PRIORITY_NORMAL = 1
    #: Priority for "urgent" bookkeeping events (run before normal ones).
    PRIORITY_URGENT = 0

    def __init__(self, seed=0, trace=False, sanitize=None):
        self.now = 0.0
        self.rng = RngStreams(seed)
        self.trace = TraceRecorder(self) if trace else None
        self._queue = []
        self._sequence = 0
        self._id_counters = {}
        self.sanitizer = None
        if sanitize is None:
            sanitize = sanitize_enabled()
        if sanitize:
            from repro.sim.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(self)

    def next_id(self, name="id"):
        """Next value of an engine-scoped deterministic id sequence.

        Replaces module- or class-level ``itertools.count`` sources:
        those survive across simulations in one process, so the ids a
        run sees depend on what ran before it. Engine-scoped counters
        reset with the simulator, keeping replays bit-identical.
        """
        value = self._id_counters.get(name, 0)
        self._id_counters[name] = value + 1
        return value

    # -- scheduling ---------------------------------------------------

    def _schedule(self, event, delay=0.0, priority=PRIORITY_NORMAL):
        time = self.now + delay
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(time, priority, self._sequence, event)
        heappush(self._queue, (time, priority, self._sequence, event))
        self._sequence += 1

    def schedule_now(self, events):
        """Schedule already-triggered ``events`` at the current time, in order.

        Equivalent to ``_schedule(event)`` for each event in turn: normal
        priority, consecutive sequence numbers and one sanitizer hook per
        event, in one call. The kernel's wake-all uses it to wake every
        eligible idle core for one runnable thread.
        """
        queue = self._queue
        time = self.now + 0.0  # the float _schedule's ``now + delay`` gives
        sequence = self._sequence
        sanitizer = self.sanitizer
        for event in events:
            if sanitizer is not None:
                sanitizer.on_schedule(time, 1, sequence, event)
            heappush(queue, (time, 1, sequence, event))
            sequence += 1
        self._sequence = sequence

    def bootstrap(self, name, callback):
        """Run ``callback(event)`` at the current time, before normal events.

        Schedules a triggered, urgent event labelled ``<name>:start``
        whose one callback is ``callback`` — the first step of every
        :class:`Process` and of every callback loop written in its
        place, so their event streams match to the label. Returns the
        event.
        """
        event = Event(self, name=name + ":start")
        event.callbacks.append(callback)
        event._state = TRIGGERED
        self._schedule(event, priority=self.PRIORITY_URGENT)
        return event

    def schedule_callback(self, delay, callback, name=None):
        """Run ``callback(value)`` after ``delay`` microseconds."""
        event = Timeout(self, delay, name=name)
        event.callbacks.append(callback)
        return event

    # -- event factories ----------------------------------------------

    def event(self, name=None):
        """Create an untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None, name=None):
        """Create an event that fires after ``delay`` microseconds."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator, name=None):
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Event that succeeds when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that succeeds when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- run loop -----------------------------------------------------

    def run(self, until=None):
        """Run until the schedule drains, a time, or an event.

        ``until`` may be ``None`` (drain the queue), a number (absolute
        simulation time in microseconds), or an :class:`Event` (stop once
        it has been processed and return its value). A time bound pops
        every event at or before it and leaves the clock there; an event
        bound stops on the pop that processes the event, and an event
        that was processed already returns its value (or raises its
        exception) at once, without popping anything.
        """
        deadline = None
        stopped = []
        if isinstance(until, Event):
            if until._state == PROCESSED:
                if until._exception is not None:
                    raise until._exception
                return until._value
            until.callbacks.append(stopped.append)
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise ValueError(f"until={deadline} is in the past (now={self.now})")
        # Cyclic GC is paused for the duration — the collector otherwise
        # walks the full object graph every few thousand event
        # allocations, and nothing in the loop relies on collection.
        # Purely a wall-clock effect; the event stream is untouched.
        queue = self._queue
        sanitizer = self.sanitizer  # fixed at Simulator construction
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while queue and not stopped:
                if deadline is not None and queue[0][0] > deadline:
                    break
                time, priority, sequence, event = heappop(queue)
                if time < self.now:
                    raise RuntimeError("schedule went backwards in time")
                if sanitizer is not None:
                    sanitizer.on_pop(time, priority, sequence, event)
                self.now = time
                callbacks = event.callbacks
                # Processed events drop their callback list entirely (an
                # accidental late append raises instead of silently
                # never running).
                event.callbacks = None
                event._state = PROCESSED
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
        finally:
            if gc_was_enabled:
                gc.enable()
        if deadline is not None:
            self.now = deadline
            return None
        if until is None:
            return None
        if not stopped:
            raise RuntimeError(
                f"schedule drained before {until!r} was triggered"
            )
        if until._exception is not None:
            raise until._exception
        return until._value

    def peek(self):
        """Time of the next scheduled event, or infinity when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def close(self):
        """End the simulation: drop the queued events' callbacks, then the queue.

        A finished run leaves core loops, governor loops and sleeping
        threads waiting in the queue. Their callbacks are closures and
        bound methods that reach back to this simulator, so each queued
        event sits in a reference cycle that only the cyclic collector
        would free. The trace recorder's back-reference goes too, so a
        recorder query that defaults to the current time raises. The
        simulator cannot run afterwards.
        """
        for entry in self._queue:
            entry[3].callbacks = None
        self._queue.clear()
        if self.trace is not None:
            self.trace.sim = None
