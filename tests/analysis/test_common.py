"""The shared checker machinery itself: pragmas, file reading, JSON.

Every checker rides on analysis/common.py; these tests pin the
cross-tool contract — one pragma namespace spanning every checker, an
unreadable path as a configuration error, and a stable JSON finding
schema.
"""

import json

from repro.analysis import common, lint, semcheck


def test_pragma_for_another_checker_is_inert_not_an_error(tmp_path):
    # A file carrying only archcheck pragmas must lint clean: shared
    # namespace means no checker rejects another checker's rule ids.
    target = tmp_path / "mod.py"
    target.write_text(
        "# repro: allow-file[sim-blocking-call]\n"
        "VALUE = 1  # repro: allow[layer-violation]\n"
    )
    findings, errors = lint.lint_paths([target])
    assert findings == []
    assert errors == []
    findings, errors = semcheck.semcheck_paths([target])
    assert findings == []
    assert errors == []


def test_findings_to_json_schema():
    finding = common.Finding("wall-clock", "a.py", 3, 7, "tick")
    payload = common.findings_to_json([finding])
    assert json.loads(json.dumps(payload)) == [{
        "rule": "wall-clock",
        "path": "a.py",
        "line": 3,
        "col": 7,
        "message": "tick",
    }]


def test_inventory_pragmas_lists_every_suppression(tmp_path):
    first = tmp_path / "first.py"
    first.write_text(
        "import time\n"
        "T0 = time.time()  # repro: allow[wall-clock]\n"
    )
    second = tmp_path / "second.py"
    second.write_text("# repro: allow-file[unsorted-items, wall-clock]\n")
    records, errors = common.inventory_pragmas([tmp_path])
    assert errors == []
    assert records == [
        {
            "path": str(first),
            "line": 2,
            "kind": "allow",
            "rules": ["wall-clock"],
        },
        {
            "path": str(second),
            "line": 1,
            "kind": "allow-file",
            "rules": ["unsorted-items", "wall-clock"],
        },
    ]


def test_inventory_pragmas_flags_unknown_rule_ids(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("VALUE = 1  # repro: allow[bogus-rule]\n")
    records, errors = common.inventory_pragmas([tmp_path])
    # The record still appears (the audit shows everything) but the
    # unknown rule id is a hard error, exactly as in a check run.
    assert [record["rules"] for record in records] == [["bogus-rule"]]
    assert len(errors) == 1
    assert "bogus-rule" in errors[0].message


def test_rule_owners_covers_every_known_rule_exactly_once():
    owners = common.rule_owners()
    assert set(owners) == set(common.known_rule_ids())
    assert set(owners.values()) == {
        "lint", "semcheck", "archcheck", "racecheck",
    }
    assert owners["wall-clock"] == "lint"
    assert owners["sim-blocking-call"] == "archcheck"
    assert owners["atomicity-violation"] == "racecheck"


def test_list_pragmas_merges_rows_and_annotates_owning_tools(
        tmp_path, capsys):
    from repro import cli

    target = tmp_path / "mod.py"
    target.write_text(
        "import time\n"
        "T0 = time.time()  # repro: allow[wall-clock]\n"
        "X = 1  # repro: allow[atomicity-violation]\n"
        "# repro: allow-file[sim-blocking-call]\n"
    )
    assert cli.main(["check", str(target), "--list-pragmas"]) == 0
    out = capsys.readouterr().out
    assert "allow[wall-clock] (lint)" in out
    assert "allow[atomicity-violation] (racecheck)" in out
    assert "allow-file[sim-blocking-call] (archcheck)" in out
    assert "3 pragma(s)" in out

    assert cli.main([
        "check", str(target), "--list-pragmas", "--format=json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["tools"] for row in payload] == [
        ["lint"], ["racecheck"], ["archcheck"],
    ]
    assert all(row["unrecognized"] == [] for row in payload)


def test_list_pragmas_flags_rules_no_tool_recognizes(tmp_path, capsys):
    from repro import cli

    target = tmp_path / "mod.py"
    target.write_text("X = 1  # repro: allow[not-anyones-rule]\n")
    assert cli.main(["check", str(target), "--list-pragmas"]) == 2
    out = capsys.readouterr().out
    assert "unrecognized by every tool: not-anyones-rule" in out


def test_checker_over_a_missing_path_exits_2_unreadable(tmp_path, capsys):
    from repro import cli

    missing = tmp_path / "missing.py"
    assert cli.main(["lint", str(missing)]) == 2
    assert f"{missing}:0: error: unreadable: " in capsys.readouterr().out


def test_repo_pragma_inventory_is_tiny():
    # Every committed suppression must be deliberate; inventory the
    # real tree so new pragmas show up in review.
    import pathlib

    src = pathlib.Path(common.__file__).resolve().parents[1]
    records, errors = common.inventory_pragmas([src])
    assert errors == []
    assert len(records) <= 4, records
    for record in records:
        assert record["kind"] in {"allow", "allow-file"}
