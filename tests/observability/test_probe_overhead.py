"""Disabled probes must be allocation-free (ISSUE #7 satellite).

The old API took span metadata as ``**kwargs``, which made CPython
allocate a fresh dict on *every* probe call — including the ~tens of
thousands per simulated session where tracing is off and the dict was
immediately thrown away. The current API takes an optional positional
dict; these tests pin the disabled path to zero allocations and the
enabled path to unchanged span content.
"""

import sys

from repro.sim.probes import _NULL, counter, instant, probe
from repro.sim import Simulator


def test_disabled_probe_returns_shared_singleton():
    sim = Simulator(seed=0, trace=False)
    first = probe(sim, "track", "label")
    second = probe(sim, "track", "label", {"static": 1})
    assert first is _NULL
    assert second is _NULL


def test_disabled_probe_allocates_nothing():
    """Net allocated blocks across many disabled probes is zero.

    ``sys.getallocatedblocks`` counts live pymalloc blocks; a probe
    path that allocated *and retained* anything (span, meta dict,
    per-call context manager) would grow the count. Temporaries that
    are freed same-call are additionally ruled out by the singleton
    identity test above — there is no per-call object to free.
    """
    sim = Simulator(seed=0, trace=False)
    static_meta = {"process": 7}

    def exercise(n):
        for _ in range(n):
            with probe(sim, "fastrpc", "invoke") as span:
                if span is not None:  # pragma: no cover - tracing off
                    span.meta["dynamic"] = 1
            with probe(sim, "fastrpc", "open_session", static_meta):
                pass
            instant(sim, "mark")
            counter(sim, "count", 1)

    exercise(1000)  # warm up interpreter caches and freelists
    # The bookkeeping ints of the measurement itself can add a block
    # on any single round, so take the min over a few: a real per-call
    # leak would show up as ~15k blocks on every round, not 0-or-1.
    deltas = []
    for _ in range(3):
        before = sys.getallocatedblocks()
        exercise(5000)
        deltas.append(sys.getallocatedblocks() - before)
    assert min(deltas) == 0, deltas


def test_enabled_probe_records_meta_from_both_styles():
    sim = Simulator(seed=0, trace=True)
    with probe(sim, "t", "static", {"model": "mobilenet_v1"}):
        pass
    with probe(sim, "t", "dynamic") as span:
        assert span is not None
        span.meta["iteration"] = 3
    static_span, dynamic_span = sim.trace.spans
    assert static_span.meta == {"model": "mobilenet_v1"}
    assert dynamic_span.meta == {"iteration": 3}


def test_enabled_probe_copies_shared_meta_dict():
    """Per-session constant dicts must never be aliased by spans —
    the error tag written on exception would leak into every later
    span sharing the dict."""
    sim = Simulator(seed=0, trace=True)
    shared = {"process": 1}
    try:
        with probe(sim, "t", "failing", shared):
            raise ValueError("boom")
    except ValueError:
        pass
    with probe(sim, "t", "ok", shared):
        pass
    failing, ok = sim.trace.spans
    assert failing.meta == {"process": 1, "error": "ValueError"}
    assert ok.meta == {"process": 1}
    assert shared == {"process": 1}


def test_enabled_instant_meta_dict():
    sim = Simulator(seed=0, trace=True)
    instant(sim, "fault:thermal", {"jump_c": 10.0})
    (mark,) = sim.trace.marks
    assert mark[1] == "fault:thermal"
    assert mark[2] == {"jump_c": 10.0}
