"""The checker registry and the invariants every registered checker keeps.

Each test is parametrized over (or sweeps) ``registry.CHECKERS``, so a
checker inherits the invariants by being registered: a file it cannot
parse and a pragma naming a rule no checker owns are configuration
errors (exit 2), never a clean run, and its rule ids belong to it alone.
"""

import json

import pytest

from repro import cli
from repro.analysis import archcheck, common
from repro.analysis.registry import CHECKERS

#: Enough layering contract for archcheck to reach the parse step.
CONTRACT = """
[layers]
order = ["app"]

[layers.modules]
app = ["mod"]
"""


def _run_json(spec, source, tmp_path, monkeypatch, capsys):
    """``(exit code, stdout payload, stderr)`` of ``spec`` over ``mod.py``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / archcheck.CONTRACT_NAME).write_text(CONTRACT)
    (tmp_path / "mod.py").write_text(source)
    code = cli.main([spec.name, "mod.py", "--format=json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


@pytest.mark.parametrize("spec", CHECKERS, ids=lambda spec: spec.name)
def test_unparsable_file_exits_2_with_the_syntax_error(
        spec, tmp_path, monkeypatch, capsys):
    code, payload, err = _run_json(
        spec, "def broken(:\n    pass\n", tmp_path, monkeypatch, capsys
    )
    assert (code, payload) == (2, [])
    assert "mod.py:1: error: syntax error" in err


@pytest.mark.parametrize("spec", CHECKERS, ids=lambda spec: spec.name)
def test_pragma_naming_no_checkers_rule_exits_2(
        spec, tmp_path, monkeypatch, capsys):
    # The file is otherwise clean: the typo alone must fail the run.
    code, payload, err = _run_json(
        spec, "X = 1  # repro: allow[not-anyones-rule]\n",
        tmp_path, monkeypatch, capsys,
    )
    assert (code, payload) == (2, [])
    assert "mod.py:1: error: unknown rule id(s) in pragma: " \
        "not-anyones-rule" in err


def test_rule_ids_are_disjoint_and_each_has_exactly_one_owner():
    rule_ids = [rule for spec in CHECKERS for rule in spec.rules]
    assert len(rule_ids) == len(set(rule_ids))
    owners = common.rule_owners()
    assert set(owners) == set(rule_ids) == common.known_rule_ids()
    for spec in CHECKERS:
        assert {owners[rule] for rule in spec.rules} == {spec.name}
