"""Generator-based simulation processes."""

from repro.sim.events import PROCESSED, TRIGGERED, Event


class Process(Event):
    """A coroutine driven by the simulator.

    The body is a generator that yields :class:`Event` objects; the process
    resumes when the yielded event triggers, receiving the event's value at
    the yield point (or its exception raised there). The process itself is
    an event that triggers with the generator's return value, so processes
    can wait on one another.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim, generator, name=None):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        self._generator = generator
        sim.bootstrap(self._name, self._resume)

    def _resume(self, event):
        # The callback on every event the process waits on: send the
        # event's value into the body (or throw its exception there),
        # then wait on the event the body yields next.
        try:
            if event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; expected an Event"
            )
        if target._state is not PROCESSED:
            target.callbacks.append(self._resume)
            return
        # An already-processed event resumes the body at the current
        # time, through an urgent bookkeeping event carrying its outcome.
        sim = self.sim
        relay = Event(sim, name=self._name + ":relay")
        relay.callbacks.append(self._resume)
        relay._state = TRIGGERED
        relay._value = target._value
        relay._exception = target._exception
        sim._schedule(relay, priority=sim.PRIORITY_URGENT)
