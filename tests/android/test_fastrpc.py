"""FastRPC offload channel tests (paper Figs. 7 and 8 mechanisms)."""

import pytest

from repro.android import Kernel, FastRpcChannel
from repro.android.fastrpc import call_flow_stages
from repro.sim import Simulator
from repro.soc import make_soc


def make_channel(seed=0, trace=False, coupling="loose"):
    sim = Simulator(seed=seed, trace=trace)
    soc = make_soc(sim, "sd845", governor_mode="performance", dsp_coupling=coupling)
    kernel = Kernel(sim, soc, enable_dvfs=False)
    channel = FastRpcChannel(kernel, process_id=1234)
    return sim, soc, kernel, channel


def run_invokes(sim, kernel, channel, count, dsp_us=5_000, nbytes=150_528):
    durations = []

    def body():
        for _ in range(count):
            duration = yield from channel.invoke(nbytes, 1_001, dsp_us)
            durations.append(duration)

    thread = kernel.spawn_on_big(body(), name="caller")
    sim.run(until=thread.done)
    return durations


def test_first_invoke_pays_session_open():
    sim, soc, kernel, channel = make_channel()
    durations = run_invokes(sim, kernel, channel, count=3)
    assert channel.stats.session_opens == 1
    # Cold start dominated by the one-time process mapping.
    assert durations[0] > durations[1] + 10_000
    assert durations[1] == pytest.approx(durations[2], rel=0.05)


def test_overhead_amortizes_over_consecutive_inferences():
    sim, soc, kernel, channel = make_channel()
    durations = run_invokes(sim, kernel, channel, count=50, dsp_us=4_000)
    total = sum(durations)
    stats = channel.stats
    overhead_us = (
        stats.session_open_us + stats.marshal_us + stats.kernel_us
        + stats.cache_flush_us + stats.transfer_us + stats.signal_us
        + stats.dsp_queue_us
    )
    overhead_fraction = overhead_us / total
    compute_fraction = stats.dsp_compute_us / total
    assert compute_fraction > 0.7
    assert overhead_fraction < 0.3
    # But for the first call alone, overhead dominates.
    assert durations[0] > 2 * 4_000


def test_invoke_counts_and_compute_accounting():
    sim, soc, kernel, channel = make_channel()
    run_invokes(sim, kernel, channel, count=5, dsp_us=2_000)
    assert channel.stats.calls == 5
    assert channel.stats.dsp_compute_us == pytest.approx(10_000)


def test_cache_flush_scales_with_buffer_size():
    _, _, kernel_small, small = make_channel()
    run_invokes(small.kernel.sim, kernel_small, small, count=2, nbytes=10_000)
    _, _, kernel_large, large = make_channel()
    run_invokes(large.kernel.sim, kernel_large, large, count=2, nbytes=2_000_000)
    assert large.stats.cache_flush_us > small.stats.cache_flush_us * 5


def test_tight_coupling_skips_flush_and_transfer():
    sim, soc, kernel, channel = make_channel(coupling="tight")
    run_invokes(sim, kernel, channel, count=3)
    assert channel.stats.cache_flush_us == 0.0
    assert channel.stats.transfer_us == 0.0


def test_concurrent_clients_queue_on_dsp():
    sim = Simulator(seed=1)
    soc = make_soc(sim, "sd845", governor_mode="performance")
    kernel = Kernel(sim, soc, enable_dvfs=False)
    channels = [FastRpcChannel(kernel, process_id=pid) for pid in (1, 2, 3)]
    queue_waits = []

    def client(channel):
        yield from channel.open_session()
        yield from channel.invoke(100_000, 1_000, dsp_compute_us=10_000)
        queue_waits.append(channel.stats.dsp_queue_us)

    threads = [
        kernel.spawn_on_big(client(ch), name=f"client{i}")
        for i, ch in enumerate(channels)
    ]
    sim.run(until=sim.all_of([t.done for t in threads]))
    # Capacity-1 DSP: at least one client waited roughly a full compute
    # slot behind another.
    assert max(queue_waits) > 8_000


def test_dsp_busy_span_recorded_in_trace():
    sim, soc, kernel, channel = make_channel(trace=True)
    run_invokes(sim, kernel, channel, count=2, dsp_us=3_000)
    spans = sim.trace.spans_on("cdsp")
    assert len(spans) == 2
    assert all(span.duration >= 3_000 for span in spans)


def test_axi_traffic_recorded():
    sim, soc, kernel, channel = make_channel()
    run_invokes(sim, kernel, channel, count=2, nbytes=500_000)
    assert soc.memory.axi_bytes >= 2 * 500_000


def test_call_flow_lists_fig7_stages():
    stages = call_flow_stages()
    assert stages[0] == "user:marshal"
    assert "dsp:dispatch_compute" in stages
    assert len(stages) == 11


def test_queued_call_waits_out_a_busy_dsp():
    """The DSP queue has no driver timeout: a queued call waits it out."""
    from repro.android.thread import Sleep

    sim = Simulator(seed=2)
    soc = make_soc(sim, "sd845", governor_mode="performance")
    kernel = Kernel(sim, soc, enable_dvfs=False)
    hog = FastRpcChannel(kernel, process_id=1)
    victim = FastRpcChannel(kernel, process_id=2)

    def hog_body():
        yield from hog.invoke(10_000, 1_000, dsp_compute_us=50_000)

    def victim_body():
        yield from victim.open_session()
        # Let the hog win the DSP first (session setup races at t=0).
        yield Sleep(15_000)
        yield from victim.invoke(10_000, 1_000, dsp_compute_us=100)

    hog_thread = kernel.spawn_on_big(hog_body(), name="hog")
    victim_thread = kernel.spawn_on_big(victim_body(), name="victim")
    sim.run(until=sim.all_of([hog_thread.done, victim_thread.done]))
    assert victim.stats.calls == 1
    assert victim.stats.timeouts == 0
    assert victim.stats.dsp_queue_us > 10_000
    assert soc.dsp.resource.queue_length == 0
    assert soc.dsp.resource.in_use == 0
