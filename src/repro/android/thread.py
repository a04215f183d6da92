"""Simulated threads and the requests their bodies may yield.

A thread body is a generator that yields scheduling requests:

* ``Work(ref_us)`` — consume CPU time, measured in reference
  microseconds (see :mod:`repro.soc.params`); the scheduler slices it
  across cores and converts to wall time using the current core speed.
* ``Sleep(us)`` — block for fixed wall time without holding a core.
* ``WaitFor(event)`` — block on any simulator event (resource grants,
  DSP completion, camera frames); resumes with the event's value.

Bodies may freely ``yield from`` helper generators that mix these, which
is how drivers like :class:`repro.android.fastrpc.FastRpcChannel`
compose CPU work with device waits.
"""

from dataclasses import dataclass, field

from repro.android import params

NEW = "new"
RUNNABLE = "runnable"
RUNNING = "running"
BLOCKED = "blocked"
DONE = "done"


class Work:
    """Consume CPU: ``ref_us`` microseconds on the reference core."""

    # A plain slotted class, not a frozen dataclass: a session builds
    # hundreds of these, and the dataclass __init__ pays one
    # object.__setattr__ per field plus a __post_init__ call.
    __slots__ = ("ref_us", "label")

    def __init__(self, ref_us, label="work"):
        if ref_us < 0:
            raise ValueError(f"negative work: {ref_us}")
        self.ref_us = ref_us
        self.label = label


class Sleep:
    """Block off-CPU for a fixed wall-time duration."""

    __slots__ = ("duration_us",)

    def __init__(self, duration_us):
        if duration_us < 0:
            raise ValueError(f"negative sleep: {duration_us}")
        self.duration_us = duration_us


@dataclass(frozen=True)
class WaitFor:
    """Block until a simulator event triggers; resumes with its value."""

    event: object


class SimThread:
    """A schedulable thread.

    Created via :meth:`repro.android.kernel.Kernel.spawn`. ``nice``
    follows Linux semantics (lower = higher priority, weight 1.25x per
    step); ``affinity`` is an optional set of allowed core ids.
    """

    __slots__ = (
        "kernel", "body", "name", "tid", "nice", "affinity", "process",
        "state", "vruntime", "last_core_id", "remaining_work",
        "current_label", "penalty_work", "stats", "done", "weight",
        "_sleep_name", "_sleep_timer", "_awaited",
    )

    def __init__(self, kernel, body, name, nice=0, affinity=None, process=None):
        self.kernel = kernel
        self.body = body
        self.name = name
        self.tid = kernel.allocate_tid()
        self.nice = nice
        self.affinity = frozenset(affinity) if affinity is not None else None
        self.process = process
        self.state = NEW
        self.vruntime = 0.0
        self.last_core_id = None
        #: Remaining reference-us of the Work item being executed.
        self.remaining_work = 0.0
        self.current_label = None
        #: Pending one-off penalty work (migration cost) in ref-us.
        self.penalty_work = 0.0
        self.stats = ThreadStats()
        #: CFS load weight; vruntime advances inversely to this. ``nice``
        #: is fixed at spawn, so the weight is computed once instead of
        #: one ``**`` per slice.
        self.weight = params.NICE_WEIGHT_STEP ** (-nice)
        #: Label reused by every Sleep the body issues (see Kernel._advance).
        self._sleep_name = name + ":sleep"
        #: The one Timeout every Sleep restarts: a thread sleeps at most
        #: once at a time. Created by the first Sleep.
        self._sleep_timer = None
        #: An awaited event that was already processed, held until the
        #: zero-delay timer that resumes the body fires.
        self._awaited = None
        #: Event triggered with the body's return value when it finishes.
        self.done = kernel.sim.event(name=f"{name}:done")

    def can_run_on(self, core):
        return self.affinity is None or core.core_id in self.affinity

    def _wake(self, _timer):
        """Sleep timer callback: run the body to its next request."""
        self.kernel._advance(self, None)

    def _resume(self, event):
        """Awaited event's callback: resume the body with its outcome."""
        self.kernel._resume_from_event(self, event)

    def _resume_awaited(self, _timer):
        """Resume the body with the already-processed awaited event."""
        event = self._awaited
        self._awaited = None
        self.kernel._resume_from_event(self, event)

    def __repr__(self):
        return f"<SimThread {self.name} tid={self.tid} state={self.state}>"


@dataclass
class ThreadStats:
    """Per-thread accounting surfaced in profiles and tests."""

    cpu_time_us: float = 0.0
    context_switches: int = 0
    migrations: int = 0
    cores_used: set = field(default_factory=set)
