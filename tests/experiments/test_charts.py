"""Chart renderer tests."""

from repro.experiments import run_experiment
from repro.experiments.base import ExperimentResult
from repro.experiments.charts import render_chart


def test_unchartable_returns_none():
    result = ExperimentResult("table1", "t", ("a",), [(1,)])
    assert render_chart(result) is None


def test_fig5_chart_is_bar_chart():
    result = run_experiment("fig5", runs=4)
    chart = render_chart(result)
    assert "nnapi" in chart
    assert "█" in chart


def test_fig4_chart_stacks_stages(bench_result):
    chart = render_chart(bench_result("fig4"))
    assert "capture" in chart and "inference" in chart
    assert "mobilenet_v1:int8:app" in chart


def test_fig6_chart_has_three_sections():
    result = run_experiment("fig6", runs=4)
    chart = render_chart(result)
    assert "-- cpu --" in chart
    assert "-- hexagon --" in chart
    assert "-- nnapi --" in chart
    assert "cdsp" in chart


def test_fig8_chart_is_line_plot():
    result = run_experiment("fig8", counts=(1, 5, 20))
    chart = render_chart(result)
    assert "o" in chart
    assert "offload share" in chart


def test_fig11_chart_has_both_histograms():
    result = run_experiment("fig11", runs=40)
    chart = render_chart(result)
    assert "benchmark latency distribution" in chart
    assert "app latency distribution" in chart


def test_fig9_and_fig10_charts(bench_result):
    for experiment_id in ("fig9", "fig10"):
        chart = render_chart(bench_result(experiment_id))
        assert "jobs" in chart


def test_fig3_chart_pairs_contexts(bench_result):
    chart = render_chart(bench_result("fig3"))
    assert "cli" in chart and "app" in chart


def test_cli_chart_flag(capsys):
    from repro.cli import main

    assert main(["experiment", "fig5", "--runs", "4", "--chart"]) == 0
    out = capsys.readouterr().out
    assert "█" in out


def test_cli_chart_flag_no_chart(capsys):
    from repro.cli import main

    assert main(["experiment", "table2", "--chart"]) == 0
    out = capsys.readouterr().out
    assert "no chart defined" in out


def test_cli_json_flag(tmp_path, capsys):
    import json

    from repro.cli import main

    path = tmp_path / "fig5.json"
    assert main([
        "experiment", "fig5", "--runs", "4", "--json", str(path)
    ]) == 0
    payload = json.loads(path.read_text())
    assert payload["experiment_id"] == "fig5"
