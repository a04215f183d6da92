"""Experiment harness tests: the registry and each result's structure.

The paper's claims are checked in test_claims.py, against the bands
declared beside each experiment.
"""

import inspect

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


def _taking(parameter):
    """The ids of the experiments whose signature has ``parameter``."""
    return {
        experiment_id
        for experiment_id in REGISTRY
        if parameter in inspect.signature(REGISTRY[experiment_id]).parameters
    }


def test_experiments_taking_runs():
    # `repro report --fast` and the benchmark's report workload pass
    # runs=5 to exactly these; adding or removing one changes its work.
    assert _taking("runs") == {
        "ablation_fastcv", "ablation_probe", "ablation_snpe", "chaos",
        "fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11",
        "fleet_percentiles", "mlperf_gap", "model_scaling",
        "resolution_sweep", "soc_sweep", "streaming", "takeaways", "whatif",
    }


def test_experiments_taking_seed():
    # Every experiment that simulates takes a seed, so each claim can be
    # re-checked across seeds; the four that do not only read tables.
    assert set(REGISTRY) - _taking("seed") == {
        "ablation_stdlib", "memory_footprint", "table1", "table2",
    }
    assert len(_taking("seed")) == 32


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
