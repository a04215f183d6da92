"""Fixture-driven coverage for every archcheck rule family.

archcheck is a whole-program analysis, so its fixtures are miniature
package trees written to ``tmp_path`` and checked against a miniature
contract — one positive and at least one negative fixture per rule,
plus the pragma/CLI contract the checker family shares.
"""

import json
import pathlib
import textwrap

import pytest

from repro import cli
from repro.analysis import archcheck, lint

CONTRACT = """
[layers]
order = ["base", "mid", "top"]

[layers.modules]
base = ["pkg.base"]
mid = ["pkg.mid"]
top = ["pkg.top"]

[surfaces]
packages = ["pkg.base"]
sanctioned = ["pkg.base.units"]

[workers]
entrypoints = ["pkg.mid.worker.entry"]

[artifacts]
modules = ["*/top/export.py"]

[blocking]
process_layers = ["base", "mid"]
allow = ["*/mid/calibrate.py"]
"""


def run_program(tmp_path, files, contract=CONTRACT):
    """Write a mini package tree + contract, run archcheck over it."""
    contract_path = tmp_path / "arch.toml"
    contract_path.write_text(contract)
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    for directory in [root, *(p for p in root.rglob("*") if p.is_dir())]:
        marker = directory / "__init__.py"
        if not marker.exists():
            marker.write_text("")
    return archcheck.archcheck_paths([root], contract_path=contract_path)


def rules_of(findings):
    return [finding.rule for finding in findings]


# -- layering contracts --------------------------------------------------


def test_upward_import_is_a_layer_violation(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/helper.py": "def helper():\n    return 1\n",
        "base/core.py": "from pkg.mid import helper\n",
    })
    assert errors == []
    assert rules_of(findings) == ["layer-violation"]
    assert "imports up the layer order" in findings[0].message


def test_downward_import_is_clean(tmp_path):
    findings, errors = run_program(tmp_path, {
        "base/core.py": "def api():\n    return 1\n",
        "mid/consumer.py": "from pkg.base import api\n",
    })
    assert errors == []
    assert findings == []


def test_explicitly_forbidden_edge_is_flagged(tmp_path):
    contract = CONTRACT + "\n[layers.forbidden]\nedges = [['top', 'mid']]\n"
    # TOML wants double quotes: rewrite for strictness.
    contract = contract.replace("'", '"')
    findings, errors = run_program(tmp_path, {
        "mid/helper.py": "def helper():\n    return 1\n",
        "top/report.py": "from pkg.mid import helper\n",
    }, contract=contract)
    assert errors == []
    assert rules_of(findings) == ["layer-violation"]
    assert "explicitly forbidden edge" in findings[0].message


def test_module_outside_the_contract_is_skipped_by_layer_rules(tmp_path):
    findings, errors = run_program(tmp_path, {
        "other/misc.py": "from pkg.mid import helper\n",
        "mid/helper.py": "def helper():\n    return 1\n",
    })
    assert errors == []
    assert findings == []


# -- surface packages ----------------------------------------------------


def test_deep_import_of_surface_package_internals(tmp_path):
    findings, errors = run_program(tmp_path, {
        "base/engine.py": "class Engine:\n    pass\n",
        "mid/consumer.py": "from pkg.base.engine import Engine\n",
    })
    assert errors == []
    assert rules_of(findings) == ["deep-import"]
    assert "pkg.base.engine" in findings[0].message


def test_sanctioned_submodule_import_is_clean(tmp_path):
    findings, errors = run_program(tmp_path, {
        "base/units.py": "def to_ms(value_us):\n    return value_us\n",
        "mid/consumer.py": "from pkg.base.units import to_ms\n",
    })
    assert errors == []
    assert findings == []


def test_intra_package_deep_import_is_clean(tmp_path):
    findings, errors = run_program(tmp_path, {
        "base/engine.py": "class Engine:\n    pass\n",
        "base/other.py": "from pkg.base.engine import Engine\n",
    })
    assert errors == []
    assert findings == []


# -- cross-process safety ------------------------------------------------


def test_lambda_submitted_to_pool_is_flagged(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/jobs.py": """\
            def run(pool):
                return pool.submit(lambda: 1)
            """,
    })
    assert errors == []
    assert rules_of(findings) == ["worker-capture"]
    assert "cannot pickle" in findings[0].message


def test_nested_function_submitted_to_executor_is_flagged(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/jobs.py": """\
            def run(executor, payload):
                def task(item):
                    return item
                return executor.submit(task, payload)
            """,
    })
    assert errors == []
    assert rules_of(findings) == ["worker-capture"]
    assert "task" in findings[0].message


def test_supervisor_task_lambda_is_flagged(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/jobs.py": """\
            from pkg.mid.pooling import Supervisor

            def launch():
                return Supervisor(workers=2, task=lambda p: p)
            """,
        "mid/pooling.py": "class Supervisor:\n    pass\n",
    })
    assert errors == []
    assert rules_of(findings) == ["worker-capture"]


def test_module_level_function_submitted_to_pool_is_clean(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/jobs.py": """\
            def task(payload):
                return payload

            def run(pool, payload):
                return pool.submit(task, payload)
            """,
    })
    assert errors == []
    assert findings == []


def test_mutated_global_read_by_worker_entry_is_flagged(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/worker.py": """\
            _CACHE = {}

            def entry(payload):
                if payload in _CACHE:
                    return _CACHE[payload]
                _CACHE[payload] = payload * 2
                return _CACHE[payload]
            """,
    })
    assert errors == []
    assert rules_of(findings) == ["fork-unsafe-global"]
    assert "_CACHE" in findings[0].message
    assert findings[0].line == 1  # anchored at the definition


def test_global_reached_one_call_below_the_entry_is_flagged(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/worker.py": """\
            _SEEN = []

            def _note(payload):
                _SEEN.append(payload)

            def entry(payload):
                _note(payload)
                return payload
            """,
    })
    assert errors == []
    assert rules_of(findings) == ["fork-unsafe-global"]
    assert "_SEEN" in findings[0].message


def test_unmutated_module_dict_is_a_constant_not_a_hazard(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/worker.py": """\
            LIMITS = {"runs": 3}

            def entry(payload):
                return LIMITS["runs"] * payload
            """,
    })
    assert errors == []
    assert findings == []


def test_mutable_global_not_reachable_from_entry_is_clean(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/worker.py": """\
            _STATS = {}

            def unrelated(key):
                _STATS[key] = _STATS.get(key, 0) + 1

            def entry(payload):
                return payload
            """,
    })
    assert errors == []
    assert findings == []


# -- interprocedural nondeterminism escape -------------------------------


def test_order_dependent_callee_reached_from_artifact_module(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/stats.py": """\
            def summarize(data):
                return [key for key, value in data.items()]
            """,
        "top/export.py": """\
            from pkg.mid.stats import summarize

            def export(data):
                return {"rows": summarize(data)}
            """,
    })
    assert errors == []
    assert rules_of(findings) == ["nondet-escape"]
    assert "pkg.mid.stats.summarize" in findings[0].message


def test_sorted_callee_is_clean(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/stats.py": """\
            def summarize(data):
                return [key for key, value in sorted(data.items())]
            """,
        "top/export.py": """\
            from pkg.mid.stats import summarize

            def export(data):
                return {"rows": summarize(data)}
            """,
    })
    assert errors == []
    assert findings == []


#: Helpers whose set iteration archcheck once judged differently from
#: lint, each with whether its hash order escapes. Both checkers now
#: share one definition (``repro.analysis.common.set_iterations``) and
#: one import resolver (``repro.analysis.common.AliasResolver``).
SET_ITERATION_HELPERS = {
    # key= keeps ties in iteration order.
    "sorted-with-key": ("""\
        def summarize(data):
            return sorted((name for name in set(data)), key=len)
        """, True),
    # The slice keeps the first three in iteration order.
    "sorted-slice": ("""\
        def summarize(data):
            return sorted([name for name in set(data)][:3])
        """, True),
    # Sorted whole, without key=: no order survives.
    "sorted-set-display": ("""\
        def summarize(data):
            return sorted(name for name in {data, "x"})
        """, False),
    "materialized": ("""\
        def summarize(data):
            return list(set(data))
        """, True),
    # A `set` bound by an import is not the builtin.
    "imported-set": ("""\
        from itertools import chain as set

        def summarize(data):
            return [name for name in set(data, data)]
        """, False),
}


@pytest.mark.parametrize("case", sorted(SET_ITERATION_HELPERS))
def test_set_iteration_escape_matches_lint(case, tmp_path):
    helper, escapes = SET_ITERATION_HELPERS[case]
    findings, errors = run_program(tmp_path, {
        "mid/stats.py": helper,
        "top/export.py": """\
            from pkg.mid.stats import summarize

            def export(data):
                return {"rows": summarize(data)}
            """,
    })
    assert errors == []
    assert rules_of(findings) == (["nondet-escape"] if escapes else [])
    lint_findings, errors = lint.lint_source(
        textwrap.dedent(helper), "stats.py"
    )
    assert errors == []
    assert rules_of(lint_findings) == (["set-iteration"] if escapes else [])


def test_unsorted_iteration_inside_artifact_module_is_lint_turf(tmp_path):
    # Same-module hazards belong to lint's unsorted-items rule;
    # archcheck only tracks the *cross-module* escape.
    findings, errors = run_program(tmp_path, {
        "top/export.py": """\
            def rows(data):
                return [key for key, value in data.items()]

            def export(data):
                return {"rows": rows(data)}
            """,
    })
    assert errors == []
    assert findings == []


# -- blocking calls in DES process bodies --------------------------------


def test_real_sleep_inside_a_process_body(tmp_path):
    findings, errors = run_program(tmp_path, {
        "base/proc.py": """\
            import time

            def body(sim):
                yield sim.timeout(10)
                time.sleep(0.1)
            """,
    })
    assert errors == []
    assert rules_of(findings) == ["sim-blocking-call"]
    assert "time.sleep" in findings[0].message


def test_file_io_one_call_below_a_process_body(tmp_path):
    findings, errors = run_program(tmp_path, {
        "base/proc.py": """\
            def _dump(path):
                with open(path, "w") as handle:
                    handle.write("x")

            def body(sim):
                yield sim.timeout(10)
                _dump("out.txt")
            """,
    })
    assert errors == []
    assert rules_of(findings) == ["sim-blocking-call"]
    assert "open" in findings[0].message


def test_blocking_outside_a_generator_is_clean(tmp_path):
    findings, errors = run_program(tmp_path, {
        "base/proc.py": """\
            def export(path):
                with open(path, "w") as handle:
                    handle.write("x")
            """,
    })
    assert errors == []
    assert findings == []


def test_generator_outside_process_layers_is_clean(tmp_path):
    findings, errors = run_program(tmp_path, {
        "top/reader.py": """\
            def lines(path):
                with open(path) as handle:
                    yield from handle
            """,
    })
    assert errors == []
    assert findings == []


def test_allowlisted_module_may_block(tmp_path):
    findings, errors = run_program(tmp_path, {
        "mid/calibrate.py": """\
            import time

            def pulses(count):
                for _ in range(count):
                    time.sleep(0.001)
                    yield 1
            """,
    })
    assert errors == []
    assert findings == []


# -- pragmas -------------------------------------------------------------


def test_line_pragma_suppresses_a_finding(tmp_path):
    findings, errors = run_program(tmp_path, {
        "base/proc.py": """\
            import time

            def body(sim):
                yield sim.timeout(10)
                time.sleep(0.1)  # repro: allow[sim-blocking-call]
            """,
    })
    assert errors == []
    assert findings == []


def test_other_checkers_rule_ids_are_inert_but_valid(tmp_path):
    findings, errors = run_program(tmp_path, {
        "base/proc.py": """\
            import time

            def body(sim):
                yield sim.timeout(10)
                time.sleep(0.1)  # repro: allow[wall-clock]
            """,
    })
    # A lint rule id neither suppresses an archcheck finding nor
    # errors: the pragma namespace is shared across the family.
    assert errors == []
    assert rules_of(findings) == ["sim-blocking-call"]


def test_unknown_rule_id_in_pragma_is_an_error(tmp_path):
    findings, errors = run_program(tmp_path, {
        "base/util.py": "VALUE = 1  # repro: allow[no-such-rule]\n",
    })
    assert findings == []
    assert len(errors) == 1
    assert "unknown rule id" in errors[0].message


# -- contract handling ---------------------------------------------------


def test_missing_contract_is_an_error_not_a_clean_run(tmp_path):
    findings, errors = archcheck.archcheck_paths(
        [tmp_path], contract_path=tmp_path / "absent.toml"
    )
    assert findings == []
    assert len(errors) == 1
    assert "unreadable contract" in errors[0].message


def test_contract_that_is_not_toml_is_an_error(tmp_path):
    contract_path = tmp_path / "arch.toml"
    contract_path.write_text('[layers]\norder = ["base", "top"\n')
    findings, errors = archcheck.archcheck_paths(
        [tmp_path], contract_path=contract_path
    )
    assert findings == []
    assert len(errors) == 1
    assert "malformed contract" in errors[0].message


def test_contract_naming_an_undeclared_layer_is_an_error(tmp_path):
    bad = CONTRACT + '\n[blocking2]\n'
    bad = bad.replace('top = ["pkg.top"]',
                      'top = ["pkg.top"]\nghost = ["pkg.ghost"]')
    findings, errors = run_program(tmp_path, {}, contract=bad)
    assert findings == []
    assert any("undeclared layer" in error.message for error in errors)


def test_every_rule_id_has_a_hint_and_renders():
    for rule in archcheck.RULES:
        assert rule.hint
        assert rule.summary


# -- CLI contract --------------------------------------------------------


def _write_bad_program(tmp_path):
    contract_path = tmp_path / "arch.toml"
    contract_path.write_text(CONTRACT)
    root = tmp_path / "pkg"
    (root / "base").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "base" / "__init__.py").write_text("")
    (root / "base" / "proc.py").write_text(
        "import time\n\n"
        "def body(sim):\n"
        "    yield sim.timeout(10)\n"
        "    time.sleep(0.1)\n"
    )
    return root, contract_path


def test_cli_exit_codes(tmp_path, capsys):
    root, contract_path = _write_bad_program(tmp_path)

    assert cli.main([
        "archcheck", str(root), "--contract", str(contract_path),
    ]) == 1
    assert "[sim-blocking-call]" in capsys.readouterr().out

    # The hazard is fixed: the same run is clean.
    (root / "base" / "proc.py").write_text(
        "def body(sim):\n    yield sim.timeout(10)\n"
    )
    assert cli.main([
        "archcheck", str(root), "--contract", str(contract_path),
    ]) == 0
    assert "archcheck: clean" in capsys.readouterr().out


def test_cli_json_format_matches_the_checker_family(tmp_path, capsys):
    root, contract_path = _write_bad_program(tmp_path)
    assert cli.main([
        "archcheck", str(root), "--contract", str(contract_path),
        "--format=json",
    ]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "sim-blocking-call"
    assert set(payload[0]) == {"rule", "path", "line", "col", "message"}


def test_check_umbrella_merges_exit_codes(tmp_path, capsys):
    root, contract_path = _write_bad_program(tmp_path)
    assert cli.main([
        "check", str(root), "--contract", str(contract_path),
    ]) == 1
    out = capsys.readouterr().out
    assert "== lint ==" in out
    assert "== semcheck ==" in out
    assert "== archcheck ==" in out

    (root / "base" / "proc.py").write_text(
        "def body(sim):\n    yield sim.timeout(10)\n"
    )
    capsys.readouterr()
    assert cli.main([
        "check", str(root), "--contract", str(contract_path),
    ]) == 0
    assert "check: all clean" in capsys.readouterr().out


def test_check_umbrella_json_is_keyed_by_tool(tmp_path, capsys):
    root, contract_path = _write_bad_program(tmp_path)
    assert cli.main([
        "check", str(root), "--contract", str(contract_path),
        "--format=json",
    ]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"lint", "semcheck", "archcheck", "racecheck"}
    assert payload["archcheck"][0]["rule"] == "sim-blocking-call"
    assert payload["lint"] == []


def test_list_pragmas_inventories_suppressions(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(
        "import time\n"
        "T0 = time.time()  # repro: allow[wall-clock]\n"
        "# repro: allow-file[sim-blocking-call]\n"
    )
    assert cli.main(["archcheck", str(target), "--list-pragmas"]) == 0
    out = capsys.readouterr().out
    assert "allow[wall-clock]" in out
    assert "allow-file[sim-blocking-call]" in out
    assert "2 pragma(s)" in out

    assert cli.main([
        "lint", str(target), "--list-pragmas", "--format=json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [record["kind"] for record in payload] == ["allow", "allow-file"]
    assert payload[0]["rules"] == ["wall-clock"]
