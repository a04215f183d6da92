"""racecheck over its own repository: the tree must stay clean.

Pragmas are the only suppression there is, so every yield-point race
the checker can see has to be fixed in-tree or allowed by a
``# repro: allow[...]`` pragma in the source, where review sees it.
"""

import pathlib

from repro.analysis import racecheck

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


def test_tree_is_racecheck_clean():
    findings, errors = racecheck.racecheck_paths([SRC])
    assert errors == []
    assert [f"{f.path}:{f.line} {f.rule}" for f in findings] == []


def test_inventory_names_the_known_held_across_yield_resources():
    records, errors = racecheck.lock_inventory([SRC])
    assert errors == []
    held = {lock for rec in records for lock in rec["locks"]}
    # The DSP queue and GPU delegate serialize work by holding their
    # Resource across the compute yields — by design, and on record.
    assert "dsp.resource" in held
    assert any(lock.endswith("gpu.resource") for lock in held)
    # No path in the tree ever holds two Resources at once, so the
    # lock-order rule has nothing to order (and nothing to invert).
    assert all(len(rec["locks"]) == 1 for rec in records)
