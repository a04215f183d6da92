"""Trace export in Chrome trace-event format.

A :class:`~repro.sim.trace.TraceRecorder` is dumped as the JSON the
Chrome tracing UI (``chrome://tracing`` / Perfetto) understands, giving
the reproduction the equivalent of the Snapdragon Profiler view the
paper screenshots in Fig. 6: per-core swimlanes, cDSP activity, FastRPC
call-flow nesting, pipeline stages, counter tracks (DVFS frequency, die
temperature, queue depths), and instant markers.

Event mapping
-------------

========================  =======================================
TraceRecorder             Chrome trace event
========================  =======================================
closed ``Span``           ``ph: "X"`` complete event (one tid per
                          track; nesting derived from ts/dur)
counter sample            ``ph: "C"`` counter event
``mark()``                ``ph: "i"`` global instant
track / process names     ``ph: "M"`` metadata events
========================  =======================================

Timestamps are simulation microseconds, which is exactly the unit the
trace-event format expects. Non-metadata events are emitted sorted by
``ts`` so consumers (and the schema tests) can rely on monotonic time.
"""

import json
import re

#: Display order of track families: hardware swimlanes first (cores in
#: numeric order, then accelerators and fabric), software layers after
#: (offload channel, frameworks, app pipeline stages).
_TRACK_FAMILIES = (
    "cpu",
    "gpu",
    "cdsp",
    "npu",
    "axi",
    "fastrpc",
    "tflite",
    "nnapi",
    "snpe",
    "pipeline",
)

_TRAILING_DIGITS = re.compile(r"(\d+)$")


def track_sort_key(track):
    """Sort key grouping tracks into the canonical swimlane order.

    ``cpu0``..``cpu7`` sort numerically, hardware tracks precede
    software tracks, and unknown tracks sort last alphabetically —
    stable for any input, so tid assignment is deterministic.
    """
    digits = _TRAILING_DIGITS.search(track)
    number = int(digits.group(1)) if digits else -1
    for family_index, family in enumerate(_TRACK_FAMILIES):
        if track == family or track.startswith(family):
            return (family_index, number, track)
    return (len(_TRACK_FAMILIES), number, track)


def _track_ids(trace):
    """Stable (track -> tid) assignment in swimlane display order."""
    present = {span.track for span in trace.spans}
    ordered = sorted(present, key=track_sort_key)
    return {track: index + 1 for index, track in enumerate(ordered)}


def to_chrome_trace(trace, process_name="repro-soc", min_dur_us=0.0):
    """Convert a TraceRecorder to a Chrome trace-event dict.

    ``min_dur_us`` drops spans shorter than this — useful to thin out
    scheduler timeslices when exporting very long runs. Counters and
    marks are always exported.

    Raises ``ValueError`` once the trace's simulator is closed: its
    device's teardown has ended the spans still open then.
    """
    if trace.sim is None:
        raise ValueError("cannot export a trace after its rig is freed")
    tids = _track_ids(trace)
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": process_name},
        }
    ]
    # key=tid keeps the canonical swimlane order from _track_ids.
    for track, tid in sorted(tids.items(), key=lambda item: item[1]):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": track},
            }
        )
        metadata.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )

    events = []
    for span in trace.spans:
        if not span.closed or span.track not in tids:
            continue
        if span.duration < min_dur_us:
            continue
        events.append(
            {
                "name": span.label,
                "cat": span.track,
                "ph": "X",  # complete event
                "pid": 1,
                "tid": tids[span.track],
                "ts": span.start,
                "dur": span.duration,
                "args": dict(span.meta),
            }
        )
    for name, samples in sorted(trace.counters.items()):
        for timestamp, value in samples:
            events.append(
                {
                    "name": name,
                    "ph": "C",  # counter
                    "pid": 1,
                    "ts": timestamp,
                    "args": {"value": value},
                }
            )
    for timestamp, label, meta in trace.marks:
        events.append(
            {
                "name": label,
                "ph": "i",  # instant
                "s": "g",
                "pid": 1,
                "ts": timestamp,
                "args": dict(meta),
            }
        )
    events.sort(key=lambda event: event["ts"])  # stable: ties keep order
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace, path, process_name="repro-soc",
                       min_dur_us=0.0):
    """Write the trace to ``path`` as JSON; returns the event count.

    The arguments are those of :func:`to_chrome_trace`.
    """
    payload = to_chrome_trace(
        trace, process_name=process_name, min_dur_us=min_dur_us
    )
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(payload["traceEvents"])
