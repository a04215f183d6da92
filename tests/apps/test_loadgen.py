"""MLPerf-style loadgen tests."""

import pytest

from repro.android import Kernel
from repro.apps.loadgen import (
    MULTI_STREAM,
    OFFLINE,
    SERVER,
    SINGLE_STREAM,
    MlperfLoadgen,
)
from repro.sim import Simulator
from repro.soc import make_soc


def make_loadgen(seed=0, **kwargs):
    sim = Simulator(seed=seed)
    soc = make_soc(sim, "sd845", governor_mode="performance")
    kernel = Kernel(sim, soc, enable_dvfs=False)
    defaults = dict(model_key="mobilenet_v1", dtype="int8", target="cpu")
    defaults.update(kwargs)
    return MlperfLoadgen(kernel, **defaults)


def test_single_stream_reports_p90():
    result = make_loadgen().run(SINGLE_STREAM, queries=20)
    assert result.query_count == 20
    assert result.p90_latency_ms >= result.mean_latency_ms * 0.9
    assert result.scenario == SINGLE_STREAM
    assert result.throughput_qps > 0


def test_offline_throughput_consistent_with_latency():
    result = make_loadgen().run(OFFLINE, queries=20)
    implied_qps = 1000.0 / result.mean_latency_ms
    assert result.throughput_qps == pytest.approx(implied_qps, rel=0.2)


def test_unknown_scenario_raises():
    with pytest.raises(ValueError, match="unknown scenario"):
        make_loadgen().run("cloud", queries=5)


def test_offline_wall_excludes_prepare_and_warmup():
    # The offline denominator is the recorded offline window, which is
    # exactly the sum of the timed invokes — prepare and the untimed
    # warm-up must not inflate it.
    result = make_loadgen().run(OFFLINE, queries=10)
    implied_qps = 1000.0 / result.mean_latency_ms
    assert result.throughput_qps == pytest.approx(implied_qps, rel=1e-6)


def test_multi_stream_latency_covers_all_streams():
    single = make_loadgen().run(SINGLE_STREAM, queries=10)
    multi = make_loadgen().run(MULTI_STREAM, queries=10, streams=4)
    assert multi.scenario == MULTI_STREAM
    assert multi.query_count == 10
    # A 4-stream query serves 4 samples back to back.
    assert multi.mean_latency_ms > 2.0 * single.mean_latency_ms


def test_server_goodput_tracks_slo():
    strict = make_loadgen().run(
        SERVER, queries=20, target_qps=30.0, slo_ms=0.001, seed=3
    )
    assert strict.scenario == SERVER
    assert strict.goodput_qps == 0.0
    assert strict.slo_miss_rate == 1.0
    loose = make_loadgen().run(
        SERVER, queries=20, target_qps=30.0, slo_ms=None, seed=3
    )
    # No SLO: every completion is good, so goodput equals throughput.
    assert loose.goodput_qps == pytest.approx(loose.throughput_qps)
    assert loose.slo_miss_rate == 0.0


def test_server_queueing_shows_in_latency():
    # Offered load far above capacity: arrivals pile up behind the
    # single device and the open-loop latency includes the queue wait.
    slow = make_loadgen().run(
        SERVER, queries=15, target_qps=2000.0, slo_ms=50.0, seed=1
    )
    paced = make_loadgen().run(
        SERVER, queries=15, target_qps=5.0, slo_ms=50.0, seed=1
    )
    assert slow.p90_latency_ms > paced.p90_latency_ms


def test_server_same_seed_replays_identically():
    a = make_loadgen().run(SERVER, queries=12, target_qps=40.0, seed=9)
    b = make_loadgen().run(SERVER, queries=12, target_qps=40.0, seed=9)
    assert a == b


def test_dsp_target_beats_cpu_on_p90():
    cpu = make_loadgen(target="cpu").run(SINGLE_STREAM, queries=15)
    dsp = make_loadgen(target="hexagon").run(SINGLE_STREAM, queries=15)
    assert dsp.p90_latency_ms < cpu.p90_latency_ms
