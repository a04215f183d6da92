"""Golden-file pin for the tool-keyed ``check --format=json`` payload.

External tooling (CI annotations, dashboards) parses this payload; its
shape is a contract. The golden file records the three stable facts —
tool key order, finding-object key order, and the exit-status mapping —
and these tests regenerate each fact from a live run and compare.
Changing the schema therefore requires editing the golden on purpose,
in the same commit as the code.
"""

import json
import pathlib

import pytest

from repro import cli

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "check_json_schema.json")
    .read_text()
)

CONTRACT = """
[layers]
order = ["app"]

[layers.modules]
app = ["pkg"]
"""

# One module that trips lint (wall-clock) and racecheck (check-then-act
# across a yield) at once, so the payload carries findings from more
# than one tool in a single run.
BAD_MODULE = """\
import time

from repro.sim.events import Sleep

T0 = time.time()


class Channel:
    def open_session(self):
        if not self.opened:
            yield Sleep(10.0)
            self.opened = True

    def reset(self):
        self.opened = False
        yield Sleep(1.0)
"""


@pytest.fixture
def tree(tmp_path):
    contract = tmp_path / "arch.toml"
    contract.write_text(CONTRACT)
    target = tmp_path / "mod.py"
    target.write_text(BAD_MODULE)
    return target, contract


def run_check(target, contract, capsys):
    code = cli.main([
        "check", str(target), "--contract", str(contract),
        "--format=json",
    ])
    return code, json.loads(capsys.readouterr().out)


def test_payload_is_keyed_by_tool_in_golden_order(tree, capsys):
    target, contract = tree
    code, payload = run_check(target, contract, capsys)
    assert code == GOLDEN["exit_status"]["findings"]
    assert list(payload) == GOLDEN["tools"]


def test_every_finding_object_matches_the_golden_key_order(tree, capsys):
    target, contract = tree
    _code, payload = run_check(target, contract, capsys)
    flagged = {tool for tool in GOLDEN["tools"] if payload[tool]}
    assert {"lint", "racecheck"} <= flagged
    for tool in GOLDEN["tools"]:
        for finding in payload[tool]:
            assert list(finding) == GOLDEN["finding_keys"]


def test_findings_are_sorted_by_the_golden_order(tree, capsys):
    target, contract = tree
    _code, payload = run_check(target, contract, capsys)
    for tool in GOLDEN["tools"]:
        keys = [
            tuple(finding[field] for field in GOLDEN["finding_order"])
            for finding in payload[tool]
        ]
        assert keys == sorted(keys)


def test_exit_status_mapping_matches_the_golden(tmp_path, capsys):
    contract = tmp_path / "arch.toml"
    contract.write_text(CONTRACT)
    target = tmp_path / "mod.py"

    target.write_text("VALUE = 1\n")
    assert cli.main([
        "check", str(target), "--contract", str(contract),
        "--format=json",
    ]) == GOLDEN["exit_status"]["clean"]
    capsys.readouterr()

    target.write_text(BAD_MODULE)
    assert cli.main([
        "check", str(target), "--contract", str(contract),
        "--format=json",
    ]) == GOLDEN["exit_status"]["findings"]
    capsys.readouterr()

    target.write_text("VALUE = 1  # repro: allow[not-a-rule]\n")
    assert cli.main([
        "check", str(target), "--contract", str(contract),
        "--format=json",
    ]) == GOLDEN["exit_status"]["errors"]
    capsys.readouterr()


def test_sanitize_is_the_only_key_allowed_beyond_the_tools():
    # The umbrella may append a "sanitize" report when asked to dual-run
    # scenarios; nothing else may grow into the payload unnoticed.
    assert GOLDEN["optional_keys"] == ["sanitize"]


def test_sanitize_report_is_appended_under_its_optional_key(tree, capsys):
    target, contract = tree
    target.write_text("VALUE = 1\n")
    assert cli.main([
        "check", str(target), "--contract", str(contract),
        "--sanitize", "fig7", "--format=json",
    ]) == GOLDEN["exit_status"]["clean"]
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == GOLDEN["tools"] + GOLDEN["optional_keys"]
    [report] = payload["sanitize"]
    assert report["target"] == "fig7"
    assert report["identical"] is True


def test_unknown_sanitize_target_is_an_error(tree, capsys):
    target, contract = tree
    target.write_text("VALUE = 1\n")
    assert cli.main([
        "check", str(target), "--contract", str(contract),
        "--sanitize", "no-such-target", "--format=json",
    ]) == GOLDEN["exit_status"]["errors"]
    captured = capsys.readouterr()
    assert json.loads(captured.out)["sanitize"] == []
    assert "unknown sanitize target 'no-such-target'" in captured.err
