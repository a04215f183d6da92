"""The checker registry and the invariants every registered checker keeps.

Each test is parametrized over (or sweeps) ``registry.CHECKERS``, so a
checker inherits the invariants by being registered: its committed
baseline is empty — hazards are fixed at the source, never acknowledged
away — and its rule ids belong to it alone.
"""

import json
import pathlib

import pytest

from repro.analysis import common
from repro.analysis.registry import CHECKERS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("spec", CHECKERS, ids=lambda spec: spec.name)
def test_committed_baseline_is_empty(spec):
    payload = json.loads((REPO_ROOT / spec.baseline).read_text())
    assert payload == {"version": 1, "entries": []}, (
        "fix hazards instead of baselining them"
    )


def test_rule_ids_are_disjoint_and_each_has_exactly_one_owner():
    rule_ids = [rule for spec in CHECKERS for rule in spec.rules]
    assert len(rule_ids) == len(set(rule_ids))
    owners = common.rule_owners()
    assert set(owners) == set(rule_ids) == common.known_rule_ids()
    for spec in CHECKERS:
        assert {owners[rule] for rule in spec.rules} == {spec.name}
