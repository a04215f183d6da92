"""Figure-shaped terminal charts for experiment results.

Maps each experiment id to the chart type that best matches the paper's
original figure: bars for target comparisons, stacked stage bars for
breakdowns, histograms for distributions, utilization strips for the
profiler view, a line plot for the amortization curve.
"""

from repro import viz


def _fig3_chart(result):
    groups = [
        (f"{row[0]}:{row[1]}", [row[2], row[3], row[4]])
        for row in result.rows
    ]
    # Side-by-side bars read poorly stacked; chart app vs cli directly.
    flat = []
    for label, (cli_ms, bench_ms, app_ms) in groups:
        flat.append((f"{label} cli", cli_ms))
        flat.append((f"{label} app", app_ms))
    return viz.bar_chart(flat, title="End-to-end latency (ms): cli vs app")


def _fig4_chart(result):
    groups = [
        (f"{row[0]}:{row[1]}:{row[2]}", [row[3], row[4], row[5]])
        for row in result.rows
    ]
    return viz.grouped_bars(
        groups, stages=("capture", "pre", "inference"),
        title="Per-stage latency (ms)",
    )


def _target_bar_chart(result):
    return viz.bar_chart(
        list(zip(result.column(result.headers[0]),
                 result.column(result.headers[1]))),
        title=result.title,
    )


def _fig6_chart(result):
    sections = []
    for target in ("cpu", "hexagon", "nnapi"):
        timelines = {
            key.split(":", 1)[1]: series
            for key, series in sorted(result.series.items())
            if key.startswith(f"{target}:")
        }
        if not timelines:
            continue
        order = sorted(t for t in timelines if t.startswith("cpu"))
        order += [t for t in ("cdsp",) if t in timelines]
        sections.append(
            f"-- {target} --\n" + viz.profile_strips(timelines, order=order)
        )
    return "\n".join(sections)


def _fig8_chart(result):
    return viz.line_series(
        result.series["counts"],
        result.series["offload_share"],
        title="Offload share vs consecutive inferences",
        x_label="inferences",
        y_label="offload share",
    )


def _fig9_like_chart(result, title):
    groups = [
        (f"{row[0]} jobs", [row[1], row[2], row[3]]) for row in result.rows
    ]
    return viz.grouped_bars(
        groups, stages=("capture", "pre", "inference"), title=title
    )


def _fig11_chart(result):
    parts = []
    for label in ("benchmark", "app"):
        series = result.series.get(f"{label}_latencies_ms")
        if series:
            parts.append(
                viz.histogram(series, title=f"{label} latency distribution")
            )
    return "\n\n".join(parts)


_RENDERERS = {
    "fig3": _fig3_chart,
    "fig4": _fig4_chart,
    "fig5": lambda result: _target_bar_chart(result),
    "fig6": _fig6_chart,
    "fig8": _fig8_chart,
    "fig9": lambda result: _fig9_like_chart(
        result, "Background jobs on the DSP"
    ),
    "fig10": lambda result: _fig9_like_chart(
        result, "Background jobs on the CPU"
    ),
    "fig11": _fig11_chart,
    "ablation_snpe": _target_bar_chart,
}


def render_chart(result):
    """Chart text for a result, or None when no chart is defined."""
    renderer = _RENDERERS.get(result.experiment_id)
    if renderer is None:
        return None
    return renderer(result)
