"""Generator-based simulation processes."""

from repro.sim.events import PENDING, PROCESSED, TRIGGERED, Event, Interrupted


class Process(Event):
    """A coroutine driven by the simulator.

    The body is a generator that yields :class:`Event` objects; the process
    resumes when the yielded event triggers, receiving the event's value at
    the yield point (or its exception raised there). The process itself is
    an event that triggers with the generator's return value, so processes
    can wait on one another.

    Bookkeeping events (bootstrap, relay, interrupt) reuse label strings
    precomputed once per process — they are scheduled on every resume
    from an already-processed event, and per-event f-string formatting
    shows up in profiles (see ``docs/performance.md``).
    """

    __slots__ = ("_generator", "_waiting_on", "_relay_name")

    def __init__(self, sim, generator, name=None):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        self._generator = generator
        self._waiting_on = None
        self._relay_name = self._name + ":relay"
        sim.bootstrap(self._name, self._resume)

    def interrupt(self, cause=None):
        """Throw :class:`Interrupted` into the process at its yield point."""
        if self._state != PENDING:
            return
        target = self._waiting_on
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        wakeup = Event(self.sim, name=self._name + ":interrupt")
        wakeup.callbacks.append(
            lambda ev: self._step(Interrupted(cause), throw=True)
        )
        wakeup._state = TRIGGERED
        self.sim._schedule(wakeup, priority=self.sim.PRIORITY_URGENT)

    # -- internal -------------------------------------------------------

    def _resume(self, event):
        # The callback attached to every event a process waits on; this
        # is the single hottest function in a simulation, so the common
        # send path of _step is merged in rather than called (one frame
        # per event retired). Behaviour is identical to
        # ``self._step(event._value, throw=False)``.
        if self._state != PENDING:
            return
        self._waiting_on = None
        if event._exception is not None:
            self._step(event._exception, throw=True)
            return
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except Interrupted as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; expected an Event"
            )
        if target._state is PROCESSED:
            self._relay(target)
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)

    def _step(self, payload, throw):
        try:
            if throw:
                target = self._generator.throw(payload)
            else:
                target = self._generator.send(payload)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except Interrupted as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; expected an Event"
            )
        self._waiting_on = target
        if target._state is PROCESSED:
            self._relay(target)
        else:
            target.callbacks.append(self._resume)

    def _relay(self, target):
        # Already-processed events resume the process immediately (at
        # the current time) via a fresh bookkeeping event.
        sim = self.sim
        self._waiting_on = target
        relay = Event(sim, name=self._relay_name)
        relay.callbacks.append(self._resume)
        relay._state = TRIGGERED
        relay._value = target._value
        relay._exception = target._exception
        sim._schedule(relay, priority=sim.PRIORITY_URGENT)
