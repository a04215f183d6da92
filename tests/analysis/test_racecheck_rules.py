"""Fixture-driven coverage for every racecheck rule family.

Each fixture under ``fixtures/racecheck/`` is a miniature module of
cooperative process bodies. ``*_bad`` fixtures produce exactly the
findings named in ``EXPECTED``; ``*_ok`` fixtures are true negatives
exercising the guards the checker must respect (Resource locksets,
try/finally protection, re-reads, delta idioms, terminator pruning).
The pragma/baseline/CLI contract shared by the checker family is
covered at the bottom.
"""

import json
import pathlib

import pytest

from repro import cli
from repro.analysis import racecheck
from repro.analysis.common import LintError

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "racecheck"
PLAIN_PATH = "repo/src/repro/sim/fixture.py"

# fixture stem -> exact finding rules, in report order.
EXPECTED = {
    "atomicity_violation_bad": ["atomicity-violation"],
    # `resource.release(handle)` ends the grant like `handle.release()`.
    "atomicity_violation_bad_release_arg": ["atomicity-violation"],
    "atomicity_violation_ok_lock": [],
    "atomicity_violation_ok_private": [],
    "atomicity_violation_ok_reread": [],
    "interrupt_unsafe_balance_bad": ["interrupt-unsafe-update"],
    "interrupt_unsafe_balance_ok_finally": [],
    "interrupt_unsafe_update_bad": ["interrupt-unsafe-update"],
    "interrupt_unsafe_update_ok_atomic": [],
    "interrupt_unsafe_update_ok_finally": [],
    "lock_order_inversion_bad": [
        "lock-order-inversion", "lock-order-inversion",
    ],
    "lock_order_inversion_ok": [],
    "racecheck_ok_init_writes": [],
    "racecheck_ok_loop_accumulator": [],
    "racecheck_ok_nonprocess": [],
    "racecheck_ok_raise_branch": [],
    "stale_read_across_yield_bad": ["stale-read-across-yield"],
    "stale_read_across_yield_ok_delta": [],
    "stale_read_across_yield_ok_lock": [],
    "stale_read_across_yield_ok_snapshot": [],
    # A write-back of a cached value is an atomicity violation, not a
    # stale read: the two rules must not double-report one defect.
    "stale_read_writeback_bad": ["atomicity-violation"],
    "unguarded_shared_write_bad": ["unguarded-shared-write"],
    "unguarded_shared_write_ok": [],
}


def check_fixture(stem):
    source = (FIXTURES / f"{stem}.py").read_text()
    findings, errors = racecheck.racecheck_source(
        source, f"{stem}.py", resolved_path=PLAIN_PATH)
    assert errors == []
    return findings


@pytest.mark.parametrize("stem", sorted(EXPECTED))
def test_fixture_produces_exactly_the_expected_findings(stem):
    findings = check_fixture(stem)
    assert [finding.rule for finding in findings] == EXPECTED[stem]


def test_fixture_table_is_exhaustive():
    on_disk = {path.stem for path in FIXTURES.glob("*.py")}
    assert on_disk == set(EXPECTED)


def test_every_rule_family_has_a_bad_and_an_ok_fixture():
    flagged = {rule for rules in EXPECTED.values() for rule in rules}
    assert flagged == set(racecheck.RULES_BY_ID)
    # Every rule with a positive fixture also has a same-family true
    # negative (shared `<family>_ok*` stem prefix).
    for stem, rules in EXPECTED.items():
        if not rules or not stem.endswith("_bad"):
            continue
        family = stem[: -len("_bad")]
        negatives = [
            other for other in EXPECTED
            if other.startswith(family) and not EXPECTED[other]
        ]
        if stem == "stale_read_writeback_bad":
            continue  # variant of the stale-read family above
        assert negatives, f"no true-negative fixture for {stem}"


def test_every_rule_id_has_a_hint_and_renders():
    findings = []
    for stem in ("atomicity_violation_bad", "unguarded_shared_write_bad",
                 "stale_read_across_yield_bad", "interrupt_unsafe_update_bad",
                 "lock_order_inversion_bad"):
        findings.extend(check_fixture(stem))
    assert {f.rule for f in findings} == set(racecheck.RULES_BY_ID)
    rendered = "\n".join(racecheck.render_findings(findings))
    for rule in racecheck.RULES_BY_ID.values():
        assert rule.hint  # each rule states its fix
    for finding in findings:
        assert f"[{finding.rule}]" in rendered
        assert racecheck.RULES_BY_ID[finding.rule].hint in rendered


def test_findings_carry_locations_and_messages():
    finding = check_fixture("atomicity_violation_bad")[0]
    assert finding.path == "atomicity_violation_bad.py"
    assert finding.line > 0
    assert "yield" in finding.message


# -- pragmas -------------------------------------------------------------


def test_line_pragma_suppresses_a_finding():
    source = (FIXTURES / "atomicity_violation_bad.py").read_text()
    line = check_fixture("atomicity_violation_bad")[0].line
    lines = source.splitlines()
    lines[line - 1] += "  # repro: allow[atomicity-violation]"
    findings, errors = racecheck.racecheck_source(
        "\n".join(lines) + "\n", "pragma.py", resolved_path=PLAIN_PATH)
    assert errors == []
    assert findings == []


def test_file_pragma_suppresses_the_whole_module():
    source = (FIXTURES / "interrupt_unsafe_update_bad.py").read_text()
    source = "# repro: allow-file[interrupt-unsafe-update]\n" + source
    findings, errors = racecheck.racecheck_source(
        source, "pragma.py", resolved_path=PLAIN_PATH)
    assert errors == []
    assert findings == []


def test_other_checkers_rule_ids_are_inert_but_valid():
    source = (FIXTURES / "atomicity_violation_bad.py").read_text()
    source = "# repro: allow-file[wall-clock]\n" + source
    findings, errors = racecheck.racecheck_source(
        source, "pragma.py", resolved_path=PLAIN_PATH)
    assert errors == []
    assert [f.rule for f in findings] == ["atomicity-violation"]


def test_unknown_rule_id_in_pragma_is_an_error():
    findings, errors = racecheck.racecheck_source(
        "# repro: allow-file[not-a-rule]\n", "pragma.py",
        resolved_path=PLAIN_PATH)
    assert findings == []
    assert len(errors) == 1
    assert isinstance(errors[0], LintError)
    assert "not-a-rule" in errors[0].message


def test_syntax_error_is_reported_not_raised():
    findings, errors = racecheck.racecheck_source(
        "def broken(:\n", "broken.py", resolved_path=PLAIN_PATH)
    assert findings == []
    assert len(errors) == 1


# -- lock inventory ------------------------------------------------------


def test_lock_inventory_reports_yields_while_holding(tmp_path):
    target = tmp_path / "transfer.py"
    target.write_text((FIXTURES / "lock_order_inversion_ok.py").read_text())
    records, errors = racecheck.lock_inventory([target])
    assert errors == []
    # Each body yields once holding bus_a, once holding bus_a + bus_b.
    assert len(records) == 4
    assert [rec["locks"] for rec in records] == [
        ["bus_a"], ["bus_a", "bus_b"], ["bus_a"], ["bus_a", "bus_b"],
    ]
    assert {rec["function"] for rec in records} == {
        "Transfer.move_one", "Transfer.move_two",
    }
    assert records == sorted(
        records, key=lambda rec: (rec["path"], rec["line"]))


def test_lock_inventory_ends_a_grant_released_through_the_resource(
        tmp_path):
    target = tmp_path / "channel.py"
    target.write_text(
        (FIXTURES / "atomicity_violation_bad_release_arg.py").read_text())
    records, errors = racecheck.lock_inventory([target])
    assert errors == []
    # Only the WaitFor inside the try holds the lock; the yield after
    # `self.lock.release(grant)` holds nothing.
    assert [(rec["line"], rec["locks"]) for rec in records] == [
        (15, ["lock"]),
    ]


# -- CLI contract --------------------------------------------------------


def _write_bad_module(tmp_path):
    target = tmp_path / "channel.py"
    target.write_text((FIXTURES / "atomicity_violation_bad.py").read_text())
    return target


def test_cli_exit_codes_and_baseline_round_trip(tmp_path, capsys):
    target = _write_bad_module(tmp_path)
    baseline = tmp_path / "baseline.json"

    assert cli.main(["racecheck", str(target)]) == 1
    assert "[atomicity-violation]" in capsys.readouterr().out

    assert cli.main([
        "racecheck", str(target),
        "--baseline", str(baseline), "--write-baseline",
    ]) == 0
    assert cli.main([
        "racecheck", str(target), "--baseline", str(baseline), "--check",
    ]) == 0

    # Fixed in-tree: the acknowledged entry is now stale and --check
    # turns staleness into a configuration error.
    target.write_text(
        (FIXTURES / "atomicity_violation_ok_reread.py").read_text())
    capsys.readouterr()
    assert cli.main([
        "racecheck", str(target), "--baseline", str(baseline), "--check",
    ]) == 2


def test_cli_json_format_matches_the_checker_family(tmp_path, capsys):
    target = _write_bad_module(tmp_path)
    assert cli.main(["racecheck", str(target), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "atomicity-violation"
    assert set(payload[0]) == {"rule", "path", "line", "col", "message"}


def test_cli_list_locks_prints_the_inventory(tmp_path, capsys):
    target = tmp_path / "transfer.py"
    target.write_text((FIXTURES / "lock_order_inversion_ok.py").read_text())
    assert cli.main(["racecheck", str(target), "--list-locks"]) == 0
    out = capsys.readouterr().out
    assert "Transfer.move_one yields holding [bus_a, bus_b]" in out
    assert "4 yield(s) while holding" in out

    assert cli.main([
        "racecheck", str(target), "--list-locks", "--format=json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 4
    assert set(payload[0]) >= {"path", "line", "function", "locks"}
