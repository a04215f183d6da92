"""Tests for resources, stores, RNG streams, and traces."""

from repro.sim import Simulator, Resource, Store, RngStreams


def make_holder(sim, resource, log, name, hold):
    def body():
        request = resource.request()
        yield request
        log.append((name, "acquired", sim.now))
        yield sim.timeout(hold)
        request.release()
        log.append((name, "released", sim.now))

    return sim.process(body())


def test_capacity_one_serializes_users():
    sim = Simulator()
    dsp = Resource(sim, capacity=1, name="dsp")
    log = []
    for name in ("a", "b", "c"):
        make_holder(sim, dsp, log, name, hold=10)
    sim.run()
    acquired = [(n, t) for n, kind, t in log if kind == "acquired"]
    assert acquired == [("a", 0), ("b", 10), ("c", 20)]


def test_capacity_two_allows_overlap():
    sim = Simulator()
    pool = Resource(sim, capacity=2)
    log = []
    for name in ("a", "b", "c"):
        make_holder(sim, pool, log, name, hold=10)
    sim.run()
    acquired = [(n, t) for n, kind, t in log if kind == "acquired"]
    assert acquired == [("a", 0), ("b", 0), ("c", 10)]


def test_queue_length_tracks_waiters():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []
    for name in ("a", "b", "c"):
        make_holder(sim, res, log, name, hold=10)

    def probe():
        yield sim.timeout(5)
        return res.queue_length, res.in_use

    assert sim.run(until=sim.process(probe())) == (2, 1)


def test_store_fifo_and_blocking_get():
    sim = Simulator()
    store = Store(sim)
    seen = []

    def consumer():
        for _ in range(2):
            item = yield store.get()
            seen.append((sim.now, item))

    def producer():
        yield sim.timeout(3)
        store.put("frame0")
        yield sim.timeout(3)
        store.put("frame1")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert seen == [(3, "frame0"), (6, "frame1")]


def test_store_capacity_drops_oldest():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.put("a") == 0
    assert store.put("b") == 0
    assert store.put("c") == 1
    assert store.items == ["b", "c"]


def test_rng_streams_are_independent_and_reproducible():
    streams_one = RngStreams(seed=7)
    streams_two = RngStreams(seed=7)
    a1 = streams_one["alpha"].random(4).tolist()
    # Interleave another stream: must not perturb alpha's draws.
    streams_two["beta"].random(100)
    a2 = streams_two["alpha"].random(4).tolist()
    assert a1 == a2


def test_rng_streams_differ_across_seeds_and_names():
    streams = RngStreams(seed=7)
    other = RngStreams(seed=8)
    assert streams["x"].random(4).tolist() != other["x"].random(4).tolist()
    fresh = RngStreams(seed=7)
    assert fresh["x"].random(4).tolist() != fresh["y"].random(4).tolist()


def test_rng_spawn_deterministic_and_independent():
    parent = RngStreams(seed=7)
    child_a = parent.spawn(0)
    child_b = parent.spawn(1)
    again = RngStreams(seed=7).spawn(0)
    # Same (seed, session_id) -> identical child; siblings differ.
    assert child_a.seed == again.seed
    assert child_a.seed != child_b.seed
    assert child_a["x"].random(4).tolist() == again["x"].random(4).tolist()
    assert child_a["x"].random(4).tolist() != child_b["x"].random(4).tolist()
    # Spawning never perturbs the parent's own named streams.
    untouched = RngStreams(seed=7)
    assert parent["x"].random(4).tolist() == untouched["x"].random(4).tolist()


def test_rng_spawn_handles_negative_parent_seed_and_rejects_bad_ids():
    import pytest

    assert RngStreams(seed=-3).spawn(2).seed == RngStreams(seed=-3).spawn(2).seed
    with pytest.raises(ValueError):
        RngStreams(seed=0).spawn(-1)


def test_span_closed_handles_nan_end():
    """Regression: Span.closed must flag NaN-ended (open) spans."""
    from repro.sim.trace import Span

    open_span = Span(track="cpu0", label="work", start=1.0)
    assert not open_span.closed
    closed_span = Span(track="cpu0", label="work", start=1.0, end=4.0)
    assert closed_span.closed
    zero_length = Span(track="cpu0", label="tick", start=2.0, end=2.0)
    assert zero_length.closed


def test_trace_utilization_merges_overlaps():
    sim = Simulator(trace=True)
    trace = sim.trace
    trace.record("cpu0", "a", 0, 50)
    trace.record("cpu0", "b", 25, 75)
    sim.run(until=100)
    assert trace.utilization("cpu0", 0, 100) == 0.75


def test_trace_timeline_buckets():
    sim = Simulator(trace=True)
    sim.trace.record("cpu0", "busy", 0, 10)
    sim.run(until=40)
    assert sim.trace.timeline("cpu0", 10) == [1.0, 0.0, 0.0, 0.0]


def test_trace_begin_end_spans():
    sim = Simulator(trace=True)

    def body():
        span = sim.trace.begin("dsp", "infer")
        yield sim.timeout(30)
        sim.trace.end(span)

    sim.process(body())
    sim.run()
    spans = sim.trace.spans_on("dsp")
    assert len(spans) == 1
    assert spans[0].duration == 30


def test_trace_counters_total():
    sim = Simulator(trace=True)
    sim.trace.count("ctx_switch")
    sim.trace.count("ctx_switch", 2)
    assert sim.trace.counter_total("ctx_switch") == 3
    assert sim.trace.counter_total("missing") == 0
