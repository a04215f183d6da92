"""Runtime simulation sanitizer: the engine-side invariant checker.

The :class:`Sanitizer` is run-loop instrumentation — the engine calls
its hooks on every schedule/pop, so it lives with the engine. The
*driver* side (dual-run replay digests, divergence diffing, the CLI)
sits above in :mod:`repro.analysis.sanitize`, which consumes the event
streams recorded here. With ``REPRO_SANITIZE=1`` in the environment
(or ``--sanitize`` on the CLI, or ``Simulator(..., sanitize=True)``)
every simulator instruments its run loop:

- **monotonic event clock** — a popped event may never be earlier than
  the current simulation time, and nothing may be scheduled in the
  past;
- **tiebreak audit** — consecutive events at equal ``(time, priority)``
  are recorded as tie groups: their relative order is decided purely by
  schedule insertion order, which is exactly where nondeterminism
  (hash-ordered iteration, address-derived keys) sneaks into an
  otherwise-seeded run;
- **no negative durations** — a trace span may never close before it
  opened;
- **resource accounting** — per hardware track (``cpu*``, ``gpu``,
  ``cdsp``, ``npu``) spans must be properly nested, merged busy time
  may not exceed elapsed time, and ``busy + idle == elapsed`` is
  reported per track (:func:`audit_accounting`).

Violations raise :class:`SanitizerError` immediately, at the event that
broke the invariant, instead of surfacing later as a mysteriously
different figure.
"""

import hashlib
import re
from dataclasses import dataclass

_EPS = 1e-9

_HARDWARE_TRACK = re.compile(r"^(cpu\d*|gpu\d*|cdsp|npu)$")


class SanitizerError(AssertionError):
    """A simulation invariant was violated."""


@dataclass(frozen=True)
class EventRecord:
    """One popped schedule entry, as hashed into the replay digest."""

    time: float
    priority: int
    sequence: int
    label: str

    def render(self):
        return (
            f"t={self.time!r} prio={self.priority} seq={self.sequence} "
            f"{self.label}"
        )


def _label(event):
    return event.name or type(event).__name__


class EventStream:
    """The ordered record of every event one simulator popped."""

    def __init__(self):
        self.records = []

    def digest(self):
        """sha256 over the canonical rendering of every record."""
        digest = hashlib.sha256()
        for record in self.records:
            digest.update(
                f"{record.time!r}|{record.priority}|{record.sequence}|"
                f"{record.label}\n".encode("utf-8")
            )
        return digest.hexdigest()


#: The active cross-simulator collector, set by
#: :func:`repro.analysis.sanitize.collecting`; every Sanitizer created
#: while a collector is active registers its event stream with it.
_ACTIVE = {"collector": None}


class Sanitizer:
    """Per-simulator invariant checker and event-stream recorder.

    Attached by the engine when sanitizing is enabled; the engine calls
    :meth:`on_schedule` / :meth:`on_pop`, the trace recorder calls
    :meth:`on_span_close`.
    """

    def __init__(self, sim):
        self.sim = sim
        self.stream = EventStream()
        #: Groups of consecutive events popped at equal (time, priority)
        #: — their order is pure insertion order.
        self.ties = []
        self._tie_open = False
        self._last = None
        collector = _ACTIVE["collector"]
        if collector is not None:
            collector.register(self)

    # -- engine hooks --------------------------------------------------

    def on_schedule(self, time, priority, sequence, event):
        if time < self.sim.now - _EPS:
            raise SanitizerError(
                f"scheduled into the past: {_label(event)!r} at t={time} "
                f"with now={self.sim.now}"
            )

    def on_pop(self, time, priority, sequence, event):
        if time < self.sim.now - _EPS:
            raise SanitizerError(
                f"event clock went backwards: popped t={time} with "
                f"now={self.sim.now}"
            )
        record = EventRecord(time, priority, sequence, _label(event))
        last = self._last
        if (
            last is not None
            and last.time == record.time
            and last.priority == record.priority
        ):
            if self._tie_open:
                self.ties[-1].append(record)
            else:
                self.ties.append([last, record])
                self._tie_open = True
        else:
            self._tie_open = False
        self._last = record
        self.stream.records.append(record)

    # -- trace hooks ---------------------------------------------------

    def on_span_close(self, span):
        if span.end < span.start - _EPS:
            raise SanitizerError(
                f"negative span duration on {span.track!r}: "
                f"{span.label!r} [{span.start}, {span.end})"
            )

    # -- end-of-run audit ----------------------------------------------

    def audit(self):
        """Run end-of-run invariants; returns an accounting report.

        Raises :class:`SanitizerError` on partially-overlapping spans
        or busy time exceeding elapsed time on a hardware track.
        """
        report = {
            "events": len(self.stream.records),
            "ties": len(self.ties),
            "digest": self.stream.digest(),
            "tracks": {},
        }
        if self.sim.trace is not None:
            report["tracks"] = audit_accounting(self.sim.trace, self.sim.now)
        return report


def audit_accounting(trace, elapsed):
    """Per-hardware-track conservation: busy + idle == elapsed.

    For every hardware track (``cpu*``, ``gpu*``, ``cdsp``, ``npu``)
    the closed spans must be properly nested (Chrome complete events
    derive nesting from timestamps, and a serial unit cannot half-
    overlap itself), merged busy time may not exceed the elapsed
    simulation time, and no span may have negative duration. Returns
    ``{track: {"busy_us", "idle_us", "elapsed_us"}}``.

    The busy-over-elapsed check is an argument check: merged busy time
    is clipped to ``[0, elapsed]``, so it fires only for a negative
    ``elapsed``.
    """
    report = {}
    for track in sorted({span.track for span in trace.spans}):
        if not _HARDWARE_TRACK.match(track):
            continue
        spans = sorted(
            (
                (span.start, span.end, span.label)
                for span in trace.spans
                if span.track == track and span.closed
            ),
            key=lambda entry: (entry[0], -entry[1]),
        )
        busy = 0.0
        cursor = 0.0
        stack = []
        for start, end, label in spans:
            if end < start - _EPS:
                raise SanitizerError(
                    f"negative span duration on {track!r}: {label!r} "
                    f"[{start}, {end})"
                )
            while stack and stack[-1] <= start + _EPS:
                stack.pop()
            if stack and end > stack[-1] + _EPS:
                raise SanitizerError(
                    f"partially overlapping spans on {track!r}: {label!r} "
                    f"[{start}, {end}) crosses an enclosing span ending "
                    f"at {stack[-1]}"
                )
            stack.append(end)
            clipped_end = min(end, elapsed)
            if clipped_end > cursor:
                busy += clipped_end - max(start, cursor)
                cursor = clipped_end
        idle = elapsed - busy
        if idle < -_EPS:
            raise SanitizerError(
                f"busy time exceeds elapsed on {track!r}: busy={busy} "
                f"elapsed={elapsed}"
            )
        report[track] = {
            "busy_us": busy,
            "idle_us": max(idle, 0.0),
            "elapsed_us": elapsed,
        }
    return report
