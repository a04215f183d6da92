"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence that processes may wait on.
Events succeed with a value or fail with an exception; callbacks attached
to an event run when the simulator pops it off the schedule.

Hot-path notes (see ``docs/performance.md``): events are the single most
allocated object in a simulation — every timeslice, sleep, and wakeup is
one. They use ``__slots__``, and default labels (``timeout(3000.0)``)
are rendered *lazily* through the :attr:`Event.name` property so that an
untraced, unsanitized run never pays for a string it never reads. The
rendered text is byte-identical to the eager form, which the replay
digest (:mod:`repro.sim.sanitizer`) depends on.

A condition (:class:`AllOf`, :class:`AnyOf`) registers a callback on
each child while it is pending, and once triggered removes that
callback from every child that has not popped yet. A child that never
fires, such as the wakeup that lost to a deadline, then holds no
reference to the condition, so both are freed by reference counting
instead of waiting for the cyclic collector.
"""

from heapq import heappush

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        Owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional label used in ``repr``, traces, and replay digests.
        Subclasses with a computable default render it lazily via
        :meth:`_default_name`.
    """

    __slots__ = ("sim", "callbacks", "_name", "_state", "_value", "_exception")

    def __init__(self, sim, name=None):
        self.sim = sim
        self._name = name
        self.callbacks = []
        self._state = PENDING
        self._value = None
        self._exception = None

    @property
    def name(self):
        """The event's label; defaults are rendered on first read."""
        if self._name is None:
            return self._default_name()
        return self._name

    def _default_name(self):
        """Lazy default label; ``None`` keeps the event anonymous."""
        return None

    @property
    def triggered(self):
        return self._state != PENDING

    @property
    def processed(self):
        return self._state == PROCESSED

    @property
    def ok(self):
        """True when the event succeeded (only meaningful once triggered)."""
        return self._state != PENDING and self._exception is None

    @property
    def value(self):
        if self._state == PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value=None):
        """Trigger the event with ``value``; schedules callbacks at now."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._state = TRIGGERED
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception):
        """Trigger the event with an exception to raise in waiters."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() expects an exception instance")
        self._state = TRIGGERED
        self._exception = exception
        self.sim._schedule(self)
        return self

    def __repr__(self):
        label = self.name or self.__class__.__name__
        return f"<Event {label} state={self._state}>"


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay, value=None, name=None):
        # Flattened Event.__init__ (no super() call): timeouts are the
        # most-constructed event type — one per timeslice, sleep, and
        # context switch — and the extra frame is measurable.
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self._name = name
        self.callbacks = []
        self._state = TRIGGERED
        self._value = value
        self._exception = None
        self.delay = delay
        # Inlined sim._schedule(self, delay=delay) at PRIORITY_NORMAL
        # (1) — the only other frame left on the timeout path.
        time = sim.now + delay
        sequence = sim._sequence
        if sim.sanitizer is not None:
            sim.sanitizer.on_schedule(time, 1, sequence, self)
        heappush(sim._queue, (time, 1, sequence, self))
        sim._sequence = sequence + 1

    def restart(self, delay, callback):
        """Schedule this processed timeout again, ``delay`` us from now.

        A loop that never has more than one timer pending can re-arm one
        timeout instead of allocating one per wait. It schedules exactly
        as the constructor does — sanitizer hook, next sequence number,
        normal priority — and keeps the timeout's name and value, so an
        unnamed one pops labelled ``timeout(<delay>)``. ``callback`` is
        the only callback. Raises RuntimeError while the timeout is
        still scheduled: one event never holds two queue entries.
        """
        if self._state != PROCESSED:
            raise RuntimeError(f"{self!r} is still scheduled")
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.callbacks = [callback]
        self._state = TRIGGERED
        self.delay = delay
        # The constructor's inlined schedule, unchanged.
        sim = self.sim
        time = sim.now + delay
        sequence = sim._sequence
        if sim.sanitizer is not None:
            sim.sanitizer.on_schedule(time, 1, sequence, self)
        heappush(sim._queue, (time, 1, sequence, self))
        sim._sequence = sequence + 1

    def _default_name(self):
        # Rendered only when a sanitizer, trace, or repr asks — a plain
        # run schedules tens of thousands of these without formatting.
        return f"timeout({self.delay})"


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_done")

    def __init__(self, sim, events, name):
        super().__init__(sim, name=name)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            # A processed child can trigger the condition right here;
            # from then on no child needs the callback.
            if self._state != PENDING:
                break
            if event._state == PROCESSED:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _collect(self):
        return {
            index: event._value
            for index, event in enumerate(self.events)
            if event._state == PROCESSED and event._exception is None
        }

    def _detach(self):
        """Drop this triggered condition's callback from the children
        that have not popped yet.

        The callback would return at once, but it holds the condition
        and the condition holds the child: a child that never fires
        (the losing wakeup of an ``any_of``) would keep both alive
        until the cyclic collector ran.
        """
        callback = self._on_child
        for event in self.events:
            callbacks = event.callbacks
            if callbacks is not None and callback in callbacks:
                callbacks.remove(callback)

    def _on_child(self, event):
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when every child event has succeeded."""

    __slots__ = ()

    def __init__(self, sim, events, name=None):
        super().__init__(sim, events, name or "all_of")

    def _on_child(self, event):
        if self._state != PENDING:
            return
        if event._exception is not None:
            self.fail(event._exception)
            self._detach()
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Succeeds as soon as one child event succeeds."""

    __slots__ = ()

    def __init__(self, sim, events, name=None):
        super().__init__(sim, events, name or "any_of")

    def _on_child(self, event):
        if self._state != PENDING:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(self._collect())
        self._detach()
