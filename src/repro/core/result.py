"""The tabular result container shared by producers and consumers.

:class:`ExperimentResult` is the *sanctioned result surface* between
the simulation side (``repro.fleet`` aggregation) and the analysis side
(``repro.experiments``): a plain table plus named series, with no
reference back into live simulator objects. It lives in ``repro.core``
so the fleet can build one without importing the experiments package —
the layering contract (``.repro-arch.toml``) forbids that edge.
"""

from dataclasses import dataclass, field

from repro.core.report import render_table


@dataclass
class ExperimentResult:
    """Tabular output of one experiment plus free-form extras."""

    experiment_id: str
    title: str
    headers: tuple
    rows: list
    #: Named latency series for figure-style outputs (x -> [values]).
    series: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def render(self):
        text = render_table(
            self.headers, self.rows,
            title=f"[{self.experiment_id}] {self.title}",
        )
        if self.notes:
            text += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return text

    def column(self, header):
        """Extract one column as a list (headers matched exactly)."""
        try:
            index = list(self.headers).index(header)
        except ValueError:
            raise KeyError(
                f"no column {header!r}; have {self.headers}"
            ) from None
        return [row[index] for row in self.rows]

    def lookup(self, key_header, header):
        """Dict of key-column value -> that row's ``header`` value."""
        return dict(zip(self.column(key_header), self.column(header)))
