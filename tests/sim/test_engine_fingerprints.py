"""The engine guard: optimizations must be observably free.

Every figure-experiment fingerprint and the dual-run fleet replay
digest must equal the goldens in
``benchmarks/results/ENGINE_golden_digests.json`` — captured before the
hot-path work started. An optimization that shifts a single event
time, priority, sequence, or label fails here, not in a figure three
changes later.
"""

import json
import pathlib

from repro.analysis.engine_bench import engine_fingerprints

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "ENGINE_golden_digests.json"
)


def test_optimizations_are_observably_free():
    """Whole-dict equality with the pre-optimization goldens.

    Compare the full structure, not per-key: a missing experiment or a
    changed replay workload must fail as loudly as a changed digest.
    """
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert engine_fingerprints() == golden
