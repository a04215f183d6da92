"""The source tree must pass semcheck — and semcheck must stay sharp.

Mirror of ``test_selflint.py`` for the semantic checker: the tree is
clean with no pragma (every unit hazard and protocol hazard was fixed,
not suppressed), and seeding the original bugs back into the real
modules they were fixed in proves the checker would catch a regression.
"""

import pathlib

import repro
from repro.analysis import semcheck

SRC = pathlib.Path(repro.__file__).parent


def test_source_tree_is_clean():
    findings, errors = semcheck.semcheck_paths([SRC])
    rendered = "\n".join(
        [finding.render() for finding in findings]
        + [error.render() for error in errors]
    )
    assert not findings and not errors, f"semcheck regressions:\n{rendered}"


def _seed_hazard(module, extra):
    """Append a hazard to a real module's source and recheck it."""
    path = SRC / module
    source = path.read_text() + "\n" + extra
    findings, errors = semcheck.semcheck_source(
        source, module, resolved_path=path.as_posix()
    )
    assert errors == []
    return {finding.rule for finding in findings}


def test_seeded_resource_leak_is_caught():
    # The exact bug the GPU delegate used to have: the try/finally
    # began only after the queue wait, so an interrupt at the WaitFor
    # leaked the grant.
    rules = _seed_hazard(
        "frameworks/delegates.py",
        "def _leaky_invoke(gpu, compute):\n"
        "    request = gpu.resource.request()\n"
        "    yield WaitFor(request)\n"
        "    yield Sleep(compute)\n"
        "    request.release()\n",
    )
    assert "resource-leak" in rules


def test_seeded_magic_conversion_is_caught():
    rules = _seed_hazard(
        "experiments/fig8.py",
        "def _raw_report(total_us):\n"
        "    return total_us / 1000.0\n",
    )
    assert "magic-conversion" in rules


def test_seeded_cross_unit_arithmetic_is_caught():
    rules = _seed_hazard(
        "experiments/fig8.py",
        "def _mixed(total_us, budget_ms):\n"
        "    return total_us + budget_ms\n",
    )
    assert "unit-mismatch" in rules


def test_seeded_microsecond_contract_violation_is_caught():
    rules = _seed_hazard(
        "android/fastrpc.py",
        "def _bad_wait(sim, backoff_ms):\n"
        "    yield WaitFor(sim.timeout(backoff_ms))\n",
    )
    assert "unit-arg-mismatch" in rules


def test_seeded_yieldless_loop_is_caught():
    rules = _seed_hazard(
        "android/fastrpc.py",
        "def _spin(sim, flag):\n"
        "    yield sim.timeout(1.0)\n"
        "    while True:\n"
        "        flag.append(1)\n",
    )
    assert "yieldless-loop" in rules
