"""Fixture-driven coverage for every determinism lint rule.

Each rule has a positive fixture (``<rule>_bad.py``, must flag) and a
negative fixture (``<rule>_ok.py``, must stay clean), plus targeted
tests for pragma suppression, config scoping, the baseline workflow,
and the CLI exit codes.
"""

import json
import pathlib

import pytest

from repro import cli
from repro.analysis import lint
from repro.analysis.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    write_baseline,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: unsorted-items only fires in artifact-export modules, so its fixtures
#: are resolved as if they lived in one; everything else gets a neutral
#: simulation-module path.
EXPORT_PATH = "repo/src/repro/observability/fixture.py"
PLAIN_PATH = "repo/src/repro/sim/fixture.py"


def lint_fixture(rule, flavor):
    name = rule.replace("-", "_") + f"_{flavor}.py"
    source = (FIXTURES / name).read_text()
    resolved = EXPORT_PATH if rule == "unsorted-items" else PLAIN_PATH
    findings, errors = lint.lint_source(source, name, resolved_path=resolved)
    assert errors == []
    return findings


@pytest.mark.parametrize("rule", sorted(lint.RULES_BY_ID))
def test_bad_fixture_is_flagged(rule):
    findings = lint_fixture(rule, "bad")
    assert rule in {finding.rule for finding in findings}


@pytest.mark.parametrize("rule", sorted(lint.RULES_BY_ID))
def test_ok_fixture_is_clean(rule):
    assert lint_fixture(rule, "ok") == []


def test_every_rule_has_both_fixtures():
    for rule in lint.RULES_BY_ID:
        stem = rule.replace("-", "_")
        assert (FIXTURES / f"{stem}_bad.py").exists()
        assert (FIXTURES / f"{stem}_ok.py").exists()


# -- suppression ---------------------------------------------------------


def test_line_pragma_suppresses_one_line():
    source = (
        "import time\n"
        "T0 = time.time()  # repro: allow[wall-clock]\n"
        "T1 = time.time()\n"
    )
    findings, errors = lint.lint_source(source, "x.py")
    assert errors == []
    assert [finding.line for finding in findings] == [3]


def test_file_pragma_suppresses_whole_file():
    source = (
        "# repro: allow-file[wall-clock]\n"
        "import time\n"
        "T0 = time.time()\n"
        "T1 = time.time()\n"
    )
    findings, errors = lint.lint_source(source, "x.py")
    assert findings == [] and errors == []


def test_pragma_quoted_in_docstring_does_not_suppress():
    source = (
        '"""Example: # repro: allow-file[wall-clock]."""\n'
        "import time\n"
        "T0 = time.time()\n"
    )
    findings, errors = lint.lint_source(source, "x.py")
    assert errors == []
    assert [finding.rule for finding in findings] == ["wall-clock"]


def test_unknown_rule_in_pragma_is_a_hard_error():
    source = "X = 1  # repro: allow[not-a-rule]\n"
    findings, errors = lint.lint_source(source, "x.py")
    assert findings == []
    assert len(errors) == 1 and "not-a-rule" in errors[0].message


def test_empty_pragma_rule_list_is_a_hard_error():
    _findings, errors = lint.lint_source("X = 1  # repro: allow[]\n", "x.py")
    assert len(errors) == 1 and "empty" in errors[0].message


# -- config scoping ------------------------------------------------------


def test_wallclock_allowed_in_calibration_module():
    source = "import time\nT0 = time.time()\n"
    findings, _errors = lint.lint_source(
        source,
        "calibrate.py",
        resolved_path="repo/src/repro/processing/calibrate.py",
    )
    assert findings == []


def test_unsorted_items_ignored_outside_export_modules():
    source = (FIXTURES / "unsorted_items_bad.py").read_text()
    findings, _errors = lint.lint_source(
        source, "x.py", resolved_path=PLAIN_PATH
    )
    assert findings == []


# -- baseline workflow ---------------------------------------------------


def test_baseline_round_trip(tmp_path):
    findings = lint_fixture("wall-clock", "bad")
    path = tmp_path / "baseline.json"
    count = write_baseline(path, findings)
    assert count == len(findings) > 0
    entries, errors = load_baseline(path, lint.RULES_BY_ID)
    assert errors == []
    new, stale = apply_baseline(findings, entries)
    assert new == [] and stale == []


def test_unknown_rule_in_baseline_is_a_hard_error(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "version": 1,
        "entries": [{"rule": "ghost-rule", "path": "x.py", "line": 1}],
    }))
    entries, errors = load_baseline(path, lint.RULES_BY_ID)
    assert entries == []
    assert len(errors) == 1 and "ghost-rule" in errors[0].message


def test_stale_baseline_entries_are_surfaced():
    entries = [BaselineEntry(rule="wall-clock", path="gone.py", line=3)]
    new, stale = apply_baseline([], entries)
    assert new == [] and stale == entries


# -- CLI exit codes ------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nT0 = time.time()\n")
    baseline = tmp_path / "baseline.json"

    assert cli.main(["lint", str(bad)]) == 1
    assert "[wall-clock]" in capsys.readouterr().out

    assert cli.main(
        ["lint", str(bad), "--baseline", str(baseline), "--write-baseline"]
    ) == 0
    assert cli.main(
        ["lint", str(bad), "--baseline", str(baseline), "--check"]
    ) == 0

    # The hazard is fixed: the baseline entry is now stale, which is a
    # warning normally but a config error (exit 2) under --check.
    bad.write_text("T0 = 1\n")
    capsys.readouterr()
    assert cli.main(["lint", str(bad), "--baseline", str(baseline)]) == 0
    assert "stale" in capsys.readouterr().out
    assert cli.main(
        ["lint", str(bad), "--baseline", str(baseline), "--check"]
    ) == 2


def test_cli_unknown_pragma_rule_exits_2(tmp_path):
    bad = tmp_path / "typo.py"
    bad.write_text("X = 1  # repro: allow[wall-clok]\n")
    assert cli.main(["lint", str(bad)]) == 2


def test_cli_json_output(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nT0 = time.time()\n")
    assert cli.main(["lint", str(bad), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "wall-clock"
