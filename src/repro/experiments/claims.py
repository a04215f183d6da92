"""The paper's claims: declared once, beside the experiment that measures each.

Every experiment registers a ``CLAIMS`` table with ``@experiment``. A
:class:`Claim` row holds an id, the paper's value, the band the measured
value must fall in, a measure over the experiment's
:class:`ExperimentResult`, and the paper's statement. :func:`evaluate`
is the single evaluator: the tier-1 claim tests, the benchmark suite
and ``repro summary`` (all at the experiment's bench settings) and the
``takeaways`` experiment all read a band from the one row declaring it.
"""

import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.core.report import render_table
from repro.experiments.base import REGISTRY, run_experiment

_COMPARE = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt,
    "<=": operator.le, "=": operator.eq,
}
_BOUNDS = {"yes": True, "no": False}


def holds(band, value):
    """Whether ``value`` falls in ``band``.

    A band is one bound (``"> 1"``, ``">= 0.98"``, ``"< 0.6"``, ``"<= 1"``,
    ``"= 0"``, ``"= yes"``) or an open or closed interval (``"(4, 11)"``,
    ``"[0.04, 0.07]"``), written as the claim table renders it.
    """
    if band[0] in "([":
        low, high = (float(bound) for bound in band[1:-1].split(","))
        above = value >= low if band[0] == "[" else value > low
        return above and (value <= high if band[-1] == "]" else value < high)
    comparison, bound = band.split()
    bound = _BOUNDS[bound] if bound in _BOUNDS else float(bound)
    return _COMPARE[comparison](value, bound)


def cell(key_header, header, label):
    """Measure: the ``header`` value of the row whose key is ``label``."""
    return lambda result: result.lookup(key_header, header)[label]


def ratio(key_header, header, label, baseline):
    """Measure: ``header`` of row ``label`` over that of row ``baseline``."""

    def measure(result):
        values = result.lookup(key_header, header)
        return values[label] / values[baseline]

    return measure


@dataclass(frozen=True)
class Claim:
    """One paper claim: ``measure(result)`` must fall in ``band``."""

    id: str
    paper: str
    band: str
    measure: Callable
    statement: str


class ClaimRow(NamedTuple):
    """One evaluated claim: its claim-table cells, then its statement."""

    id: str
    paper: str
    measured: str
    band: str
    holds: bool
    statement: str


CLAIM_HEADERS = ("claim", "paper", "measured", "band", "holds")


def _format(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def evaluate(experiment_id, result):
    """One :class:`ClaimRow` per claim registered for ``experiment_id``."""
    rows = []
    for claim in REGISTRY[experiment_id].claims:
        measured = claim.measure(result)
        rows.append(ClaimRow(
            f"{experiment_id}.{claim.id}", claim.paper, _format(measured),
            claim.band, holds(claim.band, measured), claim.statement,
        ))
    return rows


def bench_claims():
    """Every claim, each experiment run once at its bench settings."""
    rows = []
    for experiment_id, run in sorted(REGISTRY.items()):
        if run.claims:
            result = run_experiment(experiment_id, **run.bench)
            rows.extend(evaluate(experiment_id, result))
    return rows


def render_claims(rows):
    return render_table(
        CLAIM_HEADERS, [row[:5] for row in rows],
        title="[claims] The paper's claims, each measured by its experiment",
    )
