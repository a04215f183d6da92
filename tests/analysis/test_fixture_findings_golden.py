"""Golden pin of every finding the per-module checkers report on the fixtures.

The rule tests compare rule ids per fixture only, so a change that moves
a finding's line, column, or message still passes them. This test
regenerates every lint, semcheck, and racecheck finding over
``fixtures/**`` (with the ``resolved_path`` values the rule tests use)
plus racecheck's yield-while-holding inventory over
``fixtures/racecheck/``, and compares both against
``goldens/fixture_findings.json`` — so a refactor of the shared analysis
machinery must leave every location and message where it was.
"""

import json
import pathlib

from repro.analysis import lint, racecheck, semcheck

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "goldens" / "fixture_findings.json"

#: The resolved paths the rule tests scope their fixtures with.
PLAIN_PATH = "repo/src/repro/sim/fixture.py"
EXPORT_PATH = "repo/src/repro/observability/fixture.py"

CHECKERS = (
    ("lint", lint.lint_source),
    ("semcheck", semcheck.semcheck_source),
    ("racecheck", racecheck.racecheck_source),
)


def regenerate(monkeypatch):
    findings = {name: [] for name, _check in CHECKERS}
    for path in sorted(FIXTURES.rglob("*.py")):
        display = path.relative_to(FIXTURES).as_posix()
        source = path.read_text()
        for name, check_source in CHECKERS:
            resolved = PLAIN_PATH
            if name == "lint" and path.stem.startswith("unsorted_items"):
                resolved = EXPORT_PATH
            file_findings, errors = check_source(
                source, display, resolved_path=resolved
            )
            assert errors == [], (name, display, errors)
            findings[name].extend(
                [f.rule, f.path, f.line, f.col, f.message]
                for f in file_findings
            )
    # lock_inventory displays paths relative to the working directory.
    monkeypatch.chdir(FIXTURES)
    inventory, errors = racecheck.lock_inventory(["racecheck"])
    assert errors == []
    return {"findings": findings, "lock_inventory": inventory}


def test_fixture_findings_match_the_golden(monkeypatch):
    assert regenerate(monkeypatch) == json.loads(GOLDEN.read_text())
