"""Fixture-driven coverage for every semcheck rule.

Each rule has a positive fixture (``<rule>_bad.py``) that must produce
*exactly* the expected finding, and a negative fixture (``<rule>_ok.py``)
that must stay clean — plus targeted tests for pragma sharing with the
determinism linter, the units-module exemption, declared call
signatures, the baseline workflow, and the CLI contract both checkers
share.
"""

import json
import pathlib

import pytest

from repro import cli
from repro.analysis import lint, semcheck
from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: Fixtures are resolved as simulation modules — *not* units.py, so the
#: magic-conversion exemption does not apply to them.
PLAIN_PATH = "repo/src/repro/sim/fixture.py"
UNITS_PATH = "repo/src/repro/sim/units.py"


def check_fixture(rule, flavor):
    name = rule.replace("-", "_") + f"_{flavor}.py"
    source = (FIXTURES / name).read_text()
    findings, errors = semcheck.semcheck_source(
        source, name, resolved_path=PLAIN_PATH
    )
    assert errors == []
    return findings


@pytest.mark.parametrize("rule", sorted(semcheck.RULES_BY_ID))
def test_bad_fixture_produces_exactly_the_expected_finding(rule):
    findings = check_fixture(rule, "bad")
    assert [finding.rule for finding in findings] == [rule]


@pytest.mark.parametrize("rule", sorted(semcheck.RULES_BY_ID))
def test_ok_fixture_is_clean(rule):
    assert check_fixture(rule, "ok") == []


@pytest.mark.parametrize("rule", sorted(semcheck.RULES_BY_ID))
def test_every_rule_has_a_fix_it_hint(rule):
    findings = check_fixture(rule, "bad")
    rendered = "\n".join(semcheck.render_findings(findings))
    assert "fix:" in rendered
    assert semcheck.RULES_BY_ID[rule].hint in rendered


def test_every_rule_has_both_fixtures():
    for rule in semcheck.RULES_BY_ID:
        stem = rule.replace("-", "_")
        assert (FIXTURES / f"{stem}_bad.py").exists()
        assert (FIXTURES / f"{stem}_ok.py").exists()


def test_rule_ids_do_not_collide_with_the_linter():
    assert not set(semcheck.RULES_BY_ID) & set(lint.RULES_BY_ID)


# -- units pass specifics ------------------------------------------------


def test_magic_conversion_exempt_inside_units_module():
    source = "def to_ms(value_us):\n    return value_us / 1000.0\n"
    findings, errors = semcheck.semcheck_source(
        source, "units.py", resolved_path=UNITS_PATH
    )
    assert findings == [] and errors == []


def test_cross_unit_comparison_is_flagged():
    source = (
        "def late(total_us, budget_ms):\n"
        "    return total_us > budget_ms\n"
    )
    findings, _errors = semcheck.semcheck_source(source, "x.py")
    assert [finding.rule for finding in findings] == ["unit-mismatch"]


def test_unit_propagates_through_assignment():
    source = (
        "def f(total_us):\n"
        "    elapsed = total_us\n"
        "    copy = elapsed\n"
        "    return copy + f_ms()\n"
        "def f_ms():\n"
        "    return 1.0\n"
    )
    findings, _errors = semcheck.semcheck_source(source, "x.py")
    assert [finding.rule for finding in findings] == ["unit-mismatch"]


def test_converter_misuse_is_flagged():
    # to_ms converts *from* microseconds; feeding it milliseconds is a
    # double conversion.
    source = (
        "from repro.sim import units\n"
        "def f(frame_ms):\n"
        "    return units.to_ms(frame_ms)\n"
    )
    findings, _errors = semcheck.semcheck_source(source, "x.py")
    assert [finding.rule for finding in findings] == ["unit-arg-mismatch"]


@pytest.mark.parametrize("call", [
    "Sleep(duration_ms)",
    "Work(duration_ms)",
    "sim.schedule_callback(duration_ms, callback)",
])
def test_declared_microsecond_contracts_are_enforced(call):
    source = (
        f"def f(sim, duration_ms, callback):\n"
        f"    return {call}\n"
    )
    findings, _errors = semcheck.semcheck_source(source, "x.py")
    assert [finding.rule for finding in findings] == ["unit-arg-mismatch"]


def test_same_module_suffixed_parameters_are_enforced():
    source = (
        "def wait(delay_us):\n"
        "    return delay_us\n"
        "def f(poll_ms):\n"
        "    return wait(poll_ms)\n"
    )
    findings, _errors = semcheck.semcheck_source(source, "x.py")
    assert [finding.rule for finding in findings] == ["unit-arg-mismatch"]


def test_unknown_units_never_flag():
    source = (
        "def f(total_us, budget):\n"
        "    return total_us + budget\n"
    )
    findings, _errors = semcheck.semcheck_source(source, "x.py")
    assert findings == []


# -- protocol pass specifics ---------------------------------------------


def test_leak_on_exception_path_is_flagged():
    # The release is only on the fall-through path; a raise in between
    # leaks the grant.
    source = (
        "def worker(resource, compute, limit):\n"
        "    request = resource.request()\n"
        "    yield request\n"
        "    request.release()\n"
        "    request = resource.request()\n"
        "    if limit:\n"
        "        raise RuntimeError('abort')\n"
        "    request.release()\n"
        "    yield compute\n"
    )
    findings, _errors = semcheck.semcheck_source(source, "x.py")
    assert "resource-leak" in {finding.rule for finding in findings}


def test_discarded_request_is_a_leak():
    source = (
        "def worker(resource, sim):\n"
        "    resource.request()\n"
        "    yield sim.timeout(1.0)\n"
    )
    findings, _errors = semcheck.semcheck_source(source, "x.py")
    assert [finding.rule for finding in findings] == ["resource-leak"]


def test_broad_except_handler_counts_as_protection():
    source = (
        "def worker(resource, compute):\n"
        "    request = resource.request()\n"
        "    try:\n"
        "        yield request\n"
        "        yield compute\n"
        "        request.release()\n"
        "    except Exception:\n"
        "        request.release()\n"
        "        raise\n"
    )
    findings, _errors = semcheck.semcheck_source(source, "x.py")
    assert findings == []


def test_non_generator_functions_are_not_protocol_checked():
    source = (
        "def helper(resource):\n"
        "    return resource.request()\n"
    )
    findings, _errors = semcheck.semcheck_source(source, "x.py")
    assert findings == []


def test_plain_generators_are_not_event_checked():
    # A data generator that never touches the simulation DSL may yield
    # whatever it wants.
    source = (
        "def squares(n):\n"
        "    for i in range(n):\n"
        "        yield i * i\n"
    )
    findings, _errors = semcheck.semcheck_source(source, "x.py")
    assert findings == []


# -- pragma sharing ------------------------------------------------------


def test_pragma_suppresses_semcheck_rule():
    source = (
        "def f(compute_us, display_ms):\n"
        "    return compute_us + display_ms  # repro: allow[unit-mismatch]\n"
    )
    findings, errors = semcheck.semcheck_source(source, "x.py")
    assert findings == [] and errors == []


def test_linter_rule_in_pragma_is_valid_but_inert_for_semcheck():
    # wall-clock belongs to the determinism linter: naming it is not a
    # typo, but it suppresses nothing here.
    source = (
        "def f(compute_us, display_ms):\n"
        "    return compute_us + display_ms  # repro: allow[wall-clock]\n"
    )
    findings, errors = semcheck.semcheck_source(source, "x.py")
    assert errors == []
    assert [finding.rule for finding in findings] == ["unit-mismatch"]


def test_semcheck_rule_in_pragma_is_valid_but_inert_for_linter():
    source = "import time\nT0 = time.time()  # repro: allow[unit-mismatch]\n"
    findings, errors = lint.lint_source(source, "x.py")
    assert errors == []
    assert [finding.rule for finding in findings] == ["wall-clock"]


def test_unknown_rule_in_pragma_is_a_hard_error():
    source = "X = 1  # repro: allow[unit-mismtach]\n"
    findings, errors = semcheck.semcheck_source(source, "x.py")
    assert findings == []
    assert len(errors) == 1 and "unit-mismtach" in errors[0].message


# -- baseline workflow ---------------------------------------------------


def test_baseline_round_trip_with_semcheck_rules(tmp_path):
    findings = check_fixture("resource-leak", "bad")
    path = tmp_path / "baseline.json"
    count = write_baseline(path, findings)
    assert count == len(findings) > 0
    entries, errors = load_baseline(path, known_rules=semcheck.RULES_BY_ID)
    assert errors == []
    new, stale = apply_baseline(findings, entries)
    assert new == [] and stale == []


def test_semcheck_rule_is_unknown_to_the_lint_baseline(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "version": 1,
        "entries": [{"rule": "resource-leak", "path": "x.py", "line": 1}],
    }))
    entries, errors = load_baseline(path, lint.RULES_BY_ID)
    assert entries == []
    assert len(errors) == 1 and "resource-leak" in errors[0].message


# -- CLI contract --------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(total_us):\n    return total_us / 1000.0\n")
    baseline = tmp_path / "baseline.json"

    assert cli.main(["semcheck", str(bad)]) == 1
    assert "[magic-conversion]" in capsys.readouterr().out

    assert cli.main(
        ["semcheck", str(bad), "--baseline", str(baseline),
         "--write-baseline"]
    ) == 0
    assert cli.main(
        ["semcheck", str(bad), "--baseline", str(baseline), "--check"]
    ) == 0

    bad.write_text("X = 1\n")
    capsys.readouterr()
    assert cli.main(
        ["semcheck", str(bad), "--baseline", str(baseline), "--check"]
    ) == 2


def test_cli_json_format_is_shared_between_checkers(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import time\n"
        "T0 = time.time()\n"
        "def f(total_us):\n"
        "    return total_us / 1000.0\n"
    )
    assert cli.main(["semcheck", str(bad), "--format=json"]) == 1
    semcheck_payload = json.loads(capsys.readouterr().out)
    assert cli.main(["lint", str(bad), "--format=json"]) == 1
    lint_payload = json.loads(capsys.readouterr().out)
    assert semcheck_payload[0]["rule"] == "magic-conversion"
    assert lint_payload[0]["rule"] == "wall-clock"
    # Identical schema: same keys in both checkers' findings.
    assert set(semcheck_payload[0]) == set(lint_payload[0]) == {
        "rule", "path", "line", "col", "message"
    }

