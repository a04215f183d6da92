"""Chrome trace-event schema round-trip on a full scenario run."""

import json

import pytest

from repro.observability import (
    record_trace,
    summarize_trace,
    to_chrome_trace,
    track_sort_key,
    write_chrome_trace,
)

_REQUIRED = {
    "M": {"name", "ph", "pid", "args"},
    "X": {"name", "cat", "ph", "pid", "tid", "ts", "dur", "args"},
    "C": {"name", "ph", "pid", "ts", "args"},
    "i": {"name", "ph", "s", "pid", "ts", "args"},
}


def _events(trace, **kwargs):
    return to_chrome_trace(trace, **kwargs)["traceEvents"]


def test_every_event_has_its_phase_required_keys(quickstart_trace):
    events = _events(quickstart_trace)
    assert events, "quickstart produced an empty trace"
    for event in events:
        required = _REQUIRED[event["ph"]]
        missing = required - set(event)
        assert not missing, (event["ph"], missing)


def test_durations_are_non_negative(quickstart_trace):
    for event in _events(quickstart_trace):
        if event["ph"] == "X":
            assert event["dur"] >= 0.0


def test_non_metadata_timestamps_are_monotonic(quickstart_trace):
    timestamps = [
        event["ts"]
        for event in _events(quickstart_trace)
        if event["ph"] != "M"
    ]
    assert timestamps == sorted(timestamps)
    assert timestamps[0] >= 0.0


def test_expected_tracks_and_counters_present(quickstart_trace):
    events = _events(quickstart_trace)
    tracks = {e["cat"] for e in events if e["ph"] == "X"}
    counters = {e["name"] for e in events if e["ph"] == "C"}
    assert {"cdsp", "fastrpc", "nnapi", "pipeline"} <= tracks
    assert any(track.startswith("cpu") for track in tracks)
    assert {
        "freq:big", "freq:little", "temp_c", "runqueue", "ctx_switch",
        "migration",
    } <= counters


def test_thread_metadata_names_every_span_track(quickstart_trace):
    events = _events(quickstart_trace)
    named = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    span_tracks = {e["cat"] for e in events if e["ph"] == "X"}
    assert span_tracks <= named
    tids = {
        e["args"]["name"]: e["tid"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    for event in events:
        if event["ph"] == "X":
            assert event["tid"] == tids[event["cat"]]


def test_every_closed_span_is_exported_once(quickstart_trace):
    exported = sorted(
        (e["cat"], e["name"], e["ts"], e["dur"])
        for e in _events(quickstart_trace)
        if e["ph"] == "X"
    )
    closed = sorted(
        (span.track, span.label, span.start, span.duration)
        for span in quickstart_trace.spans
        if span.closed
    )
    assert exported == closed


def test_min_dur_drops_spans_only(quickstart_trace):
    events = _events(quickstart_trace, min_dur_us=1e12)
    assert not any(event["ph"] == "X" for event in events)
    # counters and marks have no duration and survive the threshold
    assert any(event["ph"] == "C" for event in events)
    assert {event["ph"] for event in events} == {
        event["ph"] for event in _events(quickstart_trace)
    } - {"X"}


def test_write_round_trips_through_json(quickstart_trace, tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(quickstart_trace, path, process_name="t")
    with open(path) as handle:
        payload = json.load(handle)
    assert len(payload["traceEvents"]) == count
    assert payload["displayTimeUnit"] == "ms"
    process = [
        e for e in payload["traceEvents"] if e["name"] == "process_name"
    ]
    assert process[0]["args"]["name"] == "t"


def test_track_sort_key_orders_swimlanes():
    tracks = ["pipeline", "cpu10", "zzz", "cdsp", "cpu2", "gpu", "fastrpc"]
    assert sorted(tracks, key=track_sort_key) == [
        "cpu2", "cpu10", "gpu", "cdsp", "fastrpc", "pipeline", "zzz",
    ]


def test_export_after_the_rig_is_freed_raises(tmp_path):
    """Teardown ends the spans still open, so a late export is refused."""
    with record_trace("multitenant", runs=3) as session:
        trace = session.sim.trace
        assert _events(trace)
    closed_at_teardown = [
        span for span in trace.spans if span.meta.get("error")
    ]
    assert closed_at_teardown, "multitenant leaves spans open at exit"
    path = tmp_path / "late.json"
    with pytest.raises(ValueError, match="rig is freed"):
        to_chrome_trace(trace)
    with pytest.raises(ValueError, match="rig is freed"):
        write_chrome_trace(trace, str(path))
    with pytest.raises(ValueError, match="rig is freed"):
        summarize_trace(trace)
    assert not path.exists()
