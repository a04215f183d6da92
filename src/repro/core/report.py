"""Plain-text table rendering for experiment outputs."""


def render_table(headers, rows, title=None):
    """Render an aligned ASCII table.

    ``rows`` is a list of sequences; floats are formatted with two
    decimals, everything else with ``str``.
    """
    def fmt(value):
        if isinstance(value, bool):
            return "Y" if value else "N"
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in text_rows))
        if text_rows
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in text_rows:
        lines.append(
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def render_breakdown(breakdown_result):
    """Render a :class:`~repro.core.analysis.StageBreakdown`."""
    rows = [
        (stage, ms, f"{fraction:.1%}")
        for stage, ms, fraction in breakdown_result.rows()
    ]
    rows.append(("total", breakdown_result.total_ms, "100.0%"))
    rows.append(
        ("ai_tax", breakdown_result.tax_ms, f"{breakdown_result.tax_fraction:.1%}")
    )
    return render_table(
        ("stage", "mean ms", "share"),
        rows,
        title=f"{breakdown_result.name} (n={breakdown_result.n})",
    )
