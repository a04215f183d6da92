"""archcheck applied to this repository: the tree must be clean.

Mirrors test_selflint.py / test_semcheck_self.py: the committed
contract describes the real layering and the tree holds it —
architecture violations are fixed at the source; a true positive is
suppressed only by a ``# repro: allow[...]`` pragma in the source.
"""

import pathlib

from repro.analysis import archcheck

SRC = pathlib.Path(archcheck.__file__).resolve().parents[1]
REPO_ROOT = SRC.parents[1]
CONTRACT_PATH = REPO_ROOT / archcheck.CONTRACT_NAME


def test_repo_tree_is_archcheck_clean():
    findings, errors = archcheck.archcheck_paths(
        [SRC], contract_path=CONTRACT_PATH
    )
    assert errors == [], [e.message for e in errors]
    assert findings == [], [
        f"{f.path}:{f.line} [{f.rule}] {f.message}" for f in findings
    ]


def test_contract_loads_without_errors():
    contract, errors = archcheck.load_contract(CONTRACT_PATH)
    assert errors == []
    assert contract is not None
    assert contract.order[0] == "sim"
    assert contract.order[-1] == "frontend"


def test_contract_anchors_to_real_code():
    """Entries in the contract must name things that still exist.

    A renamed worker entrypoint or sanctioned module would silently
    disable its rule family; this pins the contract to the tree.
    """
    contract, _ = archcheck.load_contract(CONTRACT_PATH)
    modules, errors = archcheck.build_program([SRC])
    assert errors == []

    for sanctioned in contract.sanctioned:
        assert sanctioned in modules, f"sanctioned {sanctioned} is gone"
    for package in contract.surface_packages:
        assert package in modules, f"surface package {package} is gone"

    function_names = {
        qualname
        for info in modules.values()
        for qualname in info.functions
    }
    for entry in contract.worker_entrypoints:
        assert entry in function_names, f"worker entry {entry} is gone"


def test_layer_assignment_spot_checks():
    contract, _ = archcheck.load_contract(CONTRACT_PATH)
    assert contract.layer_of("repro.sim.engine") == "sim"
    assert contract.layer_of("repro.soc.dsp") == "domain"
    assert contract.layer_of("repro.fleet.runner") == "fleet"
    assert contract.layer_of("repro.analysis.archcheck") == "tools"
    # Longest prefix wins: `repro` alone is frontend, subpackages are not.
    assert contract.layer_of("repro") == "frontend"
    assert contract.layer_of("repro.cli") == "frontend"
    assert contract.layer_of("not.in.program") is None


def test_every_src_module_is_inside_the_contract():
    """No repro.* module may drift outside the layer map."""
    contract, _ = archcheck.load_contract(CONTRACT_PATH)
    modules, _ = archcheck.build_program([SRC])
    unassigned = sorted(
        name for name in modules if contract.layer_of(name) is None
    )
    assert unassigned == []
