"""The source tree must lint clean — and the linter must stay sharp.

The acceptance bar for the determinism linter is a clean tree: every
hazard it knows about was fixed in the tree, and a true positive is
suppressed only by a ``# repro: allow[...]`` pragma in the source,
where review sees it. These tests keep the tree clean, and seed known
hazards back into real modules to prove the linter would catch a
regression.
"""

import pathlib

import repro
from repro.analysis import lint

SRC = pathlib.Path(repro.__file__).parent


def test_source_tree_is_clean():
    findings, errors = lint.lint_paths([SRC])
    rendered = "\n".join(
        [finding.render() for finding in findings]
        + [error.render() for error in errors]
    )
    assert not findings and not errors, f"lint regressions:\n{rendered}"


def _seed_hazard(module, extra):
    """Append a hazard to a real module's source and lint the result."""
    path = SRC / module
    source = path.read_text() + "\n" + extra
    findings, errors = lint.lint_source(
        source, module, resolved_path=path.as_posix()
    )
    assert errors == []
    return {finding.rule for finding in findings}


def test_seeded_module_counter_is_caught():
    # A process-global itertools.count for request ids, the hazard a
    # resource module once shipped, must not be reintroducible.
    rules = _seed_hazard(
        "sim/resources.py",
        "import itertools\n_request_ids = itertools.count()\n",
    )
    assert "module-counter" in rules


def test_seeded_wall_clock_is_caught():
    rules = _seed_hazard(
        "sim/engine.py",
        "import time\n\ndef _stamp():\n    return time.time()\n",
    )
    assert "wall-clock" in rules


def test_seeded_unsorted_items_is_caught_in_export_module():
    rules = _seed_hazard(
        "observability/chrome_trace.py",
        "def _dump(counters):\n"
        "    return [pair for pair in counters.items()]\n",
    )
    assert "unsorted-items" in rules
