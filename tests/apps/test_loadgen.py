"""MLPerf-style loadgen tests."""

import pytest

from repro.android import Kernel
from repro.apps.loadgen import OFFLINE, SINGLE_STREAM, MlperfLoadgen
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


@pytest.mark.parametrize(
    "first, second", [(OFFLINE, SINGLE_STREAM), (SINGLE_STREAM, OFFLINE)]
)
def test_second_run_on_one_loadgen_reports_only_its_own_queries(
    first, second
):
    loadgen = make_loadgen()
    loadgen.run(first, queries=5)
    result = loadgen.run(second, queries=5)
    alone = make_loadgen().run(second, queries=5)
    assert result.query_count == alone.query_count == 5
    # The same samples over the same timed window as the run on a loadgen
    # of its own, up to the rounding of a later start time.
    for field in ("p90_latency_ms", "mean_latency_ms", "throughput_qps"):
        assert getattr(result, field) == pytest.approx(
            getattr(alone, field), rel=1e-9
        )


@pytest.mark.parametrize("scenario", [SINGLE_STREAM, OFFLINE])
def test_same_seed_replays_identically(scenario):
    a = make_loadgen(seed=9).run(scenario, queries=12)
    b = make_loadgen(seed=9).run(scenario, queries=12)
    assert a == b


def test_dsp_target_beats_cpu_on_p90():
    cpu = make_loadgen(target="cpu").run(SINGLE_STREAM, queries=15)
    dsp = make_loadgen(target="hexagon").run(SINGLE_STREAM, queries=15)
    assert dsp.p90_latency_ms < cpu.p90_latency_ms
