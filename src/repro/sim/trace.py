"""Execution tracing: spans, counters, and utilization queries.

The Snapdragon Profiler screenshots in the paper's Fig. 6 show per-core
utilization, cDSP activity, and context switches over time. The
:class:`TraceRecorder` collects the equivalent raw data from the simulator
so that :mod:`repro.experiments.fig6` can regenerate that profile.
"""

import math
from dataclasses import dataclass, field


@dataclass
class Span:
    """A half-open interval ``[start, end)`` of activity on a track."""

    track: str
    label: str
    start: float
    end: float = float("nan")
    meta: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def closed(self):
        return not math.isnan(self.end)


class TraceRecorder:
    """Collects spans and counter events during a simulation run.

    Tracks are free-form strings (``"cpu4"``, ``"cdsp"``, ``"axi"``).
    Counters record instantaneous samples ``(time, value)`` per name.
    """

    def __init__(self, sim):
        self.sim = sim
        self.spans = []
        self.counters = {}
        self.marks = []
        self._open = {}

    # -- spans ----------------------------------------------------------

    def begin(self, track, label, **meta):
        """Open a span on ``track``; returns a handle for :meth:`end`."""
        span = Span(track=track, label=label, start=self.sim.now, meta=meta)
        self.spans.append(span)
        self._open.setdefault(track, []).append(span)
        return span

    def end(self, span):
        """Close a span opened with :meth:`begin`.

        The handle is popped from the track's open stack by *identity*,
        scanning from the innermost end — ``list.remove`` would match
        the first value-equal span, which silently closes the wrong
        handle when same-track spans nest with identical fields (e.g.
        two zero-width retries of the same label).
        """
        span.end = self.sim.now
        sanitizer = getattr(self.sim, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.on_span_close(span)
        stack = self._open.get(span.track, [])
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index]
                break
        return span

    def open_spans(self, track):
        """Spans currently open on a track, outermost first."""
        return list(self._open.get(track, []))

    def record(self, track, label, start, end, **meta):
        """Record an already-closed span."""
        span = Span(track=track, label=label, start=start, end=end, meta=meta)
        sanitizer = getattr(self.sim, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.on_span_close(span)
        self.spans.append(span)
        return span

    # -- counters and marks ----------------------------------------------

    def count(self, name, value=1):
        """Record a counter sample at the current time."""
        self.counters.setdefault(name, []).append((self.sim.now, value))

    def mark(self, label, **meta):
        """Record an instantaneous point event."""
        self.marks.append((self.sim.now, label, meta))

    # -- queries ----------------------------------------------------------

    def spans_on(self, track):
        return [span for span in self.spans if span.track == track]

    def utilization(self, track, start=None, end=None):
        """Fraction of ``[start, end)`` covered by closed spans on a track.

        Overlapping spans are merged so utilization never exceeds 1.0.
        """
        lo = 0.0 if start is None else start
        hi = self.sim.now if end is None else end
        return _covered_fraction(self._closed_spans_on(track), lo, hi)

    def _closed_spans_on(self, track):
        return [
            span for span in self.spans if span.track == track and span.closed
        ]

    def counter_total(self, name):
        """Sum of all samples for a counter (e.g. total context switches)."""
        return sum(value for _time, value in self.counters.get(name, []))

    def timeline(self, track, bucket_us, start=0.0, end=None):
        """Per-bucket utilization list — the raw series behind Fig. 6 rows."""
        hi = self.sim.now if end is None else end
        # Filter the track once; each bucket then scans only its spans.
        spans = self._closed_spans_on(track)
        buckets = []
        cursor = start
        while cursor < hi:
            buckets.append(
                _covered_fraction(spans, cursor, min(cursor + bucket_us, hi))
            )
            cursor += bucket_us
        return buckets


def _covered_fraction(spans, lo, hi):
    """Fraction of ``[lo, hi)`` covered by the union of closed ``spans``."""
    if hi <= lo:
        return 0.0
    intervals = sorted(
        (max(span.start, lo), min(span.end, hi))
        for span in spans
        if span.end > lo and span.start < hi
    )
    busy = 0.0
    cursor = lo
    for span_start, span_end in intervals:
        if span_end <= cursor:
            continue
        busy += span_end - max(span_start, cursor)
        cursor = max(cursor, span_end)
    return busy / (hi - lo)
