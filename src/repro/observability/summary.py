"""Self-time rollup: where trace time goes, per track and label.

The Chrome trace answers "what happened at t=1.2s"; this module answers
"what dominated". For every track it computes, per span label:

* **inclusive** time — summed span durations (a parent span includes
  everything nested inside it, the way ``fastrpc:invoke`` includes its
  marshal/queue/transfer children);
* **exclusive** (self) time — inclusive minus the time covered by
  directly nested child spans, i.e. the time attributable to the label
  itself.

Probe-instrumented tracks are stack-disciplined (spans nest; they never
partially overlap), and for such tracks the exclusive times of all
labels sum exactly to the track's busy time — the invariant the tier-1
suite asserts. Partially overlapping spans (possible on hand-recorded
tracks) are attributed to the innermost enclosing span on a best-effort
basis.
"""

from dataclasses import dataclass

from repro.observability.chrome_trace import track_sort_key
from repro.sim import units


@dataclass
class LabelStat:
    """Aggregated time for one (track, label) pair."""

    track: str
    label: str
    count: int
    inclusive_us: float
    exclusive_us: float


def _exclusive_times(spans):
    """Exclusive (self) time per span, parallel to ``spans``.

    ``spans`` must be closed spans on one track sorted by
    ``(start, -end)`` so parents precede their children.
    """
    exclusive = [span.duration for span in spans]
    stack = []  # indices of still-open ancestors
    for index, span in enumerate(spans):
        while stack and spans[stack[-1]].end <= span.start:
            stack.pop()
        if stack:
            parent = stack[-1]
            overlap = min(span.end, spans[parent].end) - span.start
            if overlap > 0.0:
                exclusive[parent] -= overlap
        stack.append(index)
    return [max(0.0, value) for value in exclusive]


def _busy_time(spans):
    """Union of span intervals — total busy time on a track."""
    busy = 0.0
    cursor = float("-inf")
    for span in spans:  # already sorted by start
        if span.end <= cursor:
            continue
        busy += span.end - max(span.start, cursor)
        cursor = span.end
    return busy


class TraceSummary:
    """Per-track, per-label rollup of a :class:`TraceRecorder`."""

    def __init__(self, rows, track_busy_us, total_us):
        #: ``[LabelStat, ...]`` sorted by track order, then self time.
        self.rows = rows
        #: ``{track: busy us}`` — union of the track's span intervals.
        self.track_busy_us = track_busy_us
        #: Wall-clock extent of the trace (last end - first start).
        self.total_us = total_us

    @property
    def tracks(self):
        return list(self.track_busy_us)

    def rows_on(self, track):
        return [row for row in self.rows if row.track == track]

    def track_exclusive_us(self, track):
        """Sum of label self times on a track.

        Equals :attr:`track_busy_us` for stack-disciplined tracks.
        """
        return sum(row.exclusive_us for row in self.rows_on(track))

    def render(self, top=None):
        """Text table, one section per track, hottest labels first.

        ``top`` limits the labels shown per track (None shows all).
        """
        lines = []
        label_width = max(
            [len(row.label) for row in self.rows] + [len("label")]
        )
        for track in self.tracks:
            busy = self.track_busy_us[track]
            lines.append(
                f"[{track}] busy {units.to_ms(busy):.2f} ms "
                f"({busy / self.total_us:.1%} of trace)"
                if self.total_us > 0
                else f"[{track}] busy {units.to_ms(busy):.2f} ms"
            )
            header = (
                f"  {'label':<{label_width}} | count | incl ms | "
                f"self ms | self share"
            )
            lines.append(header)
            lines.append("  " + "-" * (len(header) - 2))
            rows = self.rows_on(track)
            if top is not None:
                rows = rows[:top]
            for row in rows:
                share = row.exclusive_us / busy if busy > 0 else 0.0
                lines.append(
                    f"  {row.label:<{label_width}} | {row.count:>5} | "
                    f"{units.to_ms(row.inclusive_us):>7.2f} | "
                    f"{units.to_ms(row.exclusive_us):>7.2f} | {share:>9.1%}"
                )
            lines.append("")
        return "\n".join(lines).rstrip()


def summarize_trace(trace, tracks=None):
    """Roll a :class:`TraceRecorder` up into a :class:`TraceSummary`.

    Raises ``ValueError`` once the trace's simulator is closed, as
    :func:`~repro.observability.chrome_trace.to_chrome_trace` does.
    """
    if trace.sim is None:
        raise ValueError("cannot summarize a trace after its rig is freed")
    by_track = {}
    for span in trace.spans:
        if not span.closed:
            continue
        if tracks is not None and span.track not in tracks:
            continue
        by_track.setdefault(span.track, []).append(span)

    rows = []
    track_busy = {}
    extent_lo, extent_hi = float("inf"), float("-inf")
    for track in sorted(by_track, key=track_sort_key):
        spans = sorted(by_track[track], key=lambda s: (s.start, -s.end))
        extent_lo = min(extent_lo, spans[0].start)
        extent_hi = max(extent_hi, max(span.end for span in spans))
        track_busy[track] = _busy_time(spans)
        exclusive = _exclusive_times(spans)
        stats = {}
        for span, self_us in zip(spans, exclusive):
            stat = stats.get(span.label)
            if stat is None:
                stats[span.label] = LabelStat(
                    track, span.label, 1, span.duration, self_us
                )
            else:
                stat.count += 1
                stat.inclusive_us += span.duration
                stat.exclusive_us += self_us
        rows.extend(
            sorted(stats.values(), key=lambda s: (-s.exclusive_us, s.label))
        )
    total = extent_hi - extent_lo if track_busy else 0.0
    return TraceSummary(rows, track_busy, total)
