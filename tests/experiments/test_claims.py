"""Every paper claim holds at its experiment's bench settings.

The claims and their bands live beside the experiments that measure
them (the ``CLAIMS`` tables registered with ``@experiment``); this
module only evaluates them, one test per claim, over one run of each
experiment.
"""

import pytest

from repro.experiments import REGISTRY
from repro.experiments.claims import evaluate, holds

CLAIM_IDS = [
    f"{experiment_id}.{claim.id}"
    for experiment_id, run in sorted(REGISTRY.items())
    for claim in run.claims
]


@pytest.mark.parametrize("claim_id", CLAIM_IDS)
def test_claim_holds(bench_result, claim_id):
    experiment_id = claim_id.split(".")[0]
    rows = evaluate(experiment_id, bench_result(experiment_id))
    row = next(row for row in rows if row.id == claim_id)
    assert row.holds, (
        f"{row.statement} (paper: {row.paper}): measured {row.measured}, "
        f"outside {row.band}"
    )


@pytest.mark.parametrize("band, value, expected", [
    ("(4, 11)", 4.0, False), ("(4, 11)", 7.0, True),
    ("[0.04, 0.07]", 0.07, True), ("> 1", 1.0, False),
    (">= 1", 1.0, True), ("< 2", 2.0, False), ("<= 1", 1.0, True),
    ("= 0", 0.0, True), ("= yes", False, False),
])
def test_band_bounds(band, value, expected):
    assert holds(band, value) is expected
