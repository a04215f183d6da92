"""Experiment harness tests: the registry and each result's structure.

The paper's claims are checked in test_claims.py, against the bands
declared beside each experiment.
"""

import pytest

from repro.android import Kernel
from repro.apps.pipelined import PipelinedApp
from repro.experiments import REGISTRY, run_experiment
from repro.sim import Simulator
from repro.soc import make_soc


def test_registry_covers_every_table_and_figure():
    expected = {
        "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "fig8", "fig9", "fig10", "fig11",
        "ablation_snpe", "ablation_probe", "ablation_coupling",
        "ablation_stdlib",
    }
    assert expected <= set(REGISTRY)


def test_unknown_experiment_raises():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("fig99")


def test_table1_lists_all_models(bench_result):
    result = bench_result("table1")
    assert len(result.rows) == 11
    with pytest.raises(KeyError):
        result.column("Latency")


def test_table2_lists_all_platforms(bench_result):
    result = bench_result("table2")
    assert len(result.rows) == 4
    assert any("Pixel 3" in row[0] for row in result.rows)
    assert "render" in dir(result)
    assert "[table2]" in result.render()


def test_fig7_decomposition_covers_flow(bench_result):
    result = bench_result("fig7")
    stages = result.column("Stage")
    assert "dsp compute" in stages
    assert "cache flush/invalidate" in stages
    shares = result.column("share")
    assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_fig11_histogram_counts_every_run(bench_result):
    result = bench_result("fig11")
    histogram = result.series["app_histogram"]
    runs = result.lookup("context", "n")["app"]
    assert sum(count for _lo, _hi, count in histogram) == runs


def test_pipelined_app_records_all_frames():
    sim = Simulator(seed=0)
    soc = make_soc(sim, "sd845")
    kernel = Kernel(sim, soc)
    app = PipelinedApp(kernel, "mobilenet_v1", dtype="int8", target="hexagon")
    records = app.execute(frames=8)
    assert len(records) == 8
    assert all(run.meta["pipelined"] for run in records)
    assert all(run.meta["throughput_fps"] > 0 for run in records)
    # Producer and consumer ran as separate threads of one process.
    assert app.producer_thread.stats.cpu_time_us > 0
