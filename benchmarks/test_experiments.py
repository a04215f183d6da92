"""Bench: regenerate every registered experiment at its bench settings.

Each experiment runs once under pytest-benchmark timing, writes its
rendering to ``results/<id>.txt`` and must satisfy every claim declared
beside it. ``results/claims.txt`` collects the evaluated claims, one row
each. CI's ``paper-claims`` job fails when a run leaves any file under
``results/`` different from the committed one, so every measured value
is gated.
"""

import functools
import pathlib

import pytest

from repro.experiments import REGISTRY, run_experiment
from repro.experiments.claims import evaluate, render_claims

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


@functools.lru_cache(maxsize=None)
def bench_result(experiment_id):
    return run_experiment(experiment_id, **REGISTRY[experiment_id].bench)


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_experiment(benchmark, experiment_id):
    result = benchmark.pedantic(
        bench_result, args=(experiment_id,), rounds=1, iterations=1,
    )
    path = RESULTS_DIR / f"{experiment_id}.txt"
    path.write_text(result.render() + "\n")
    failed = [
        f"{row.id}: measured {row.measured}, outside {row.band}"
        for row in evaluate(experiment_id, result)
        if not row.holds
    ]
    assert not failed, failed


def test_claims_table():
    rows = [
        row
        for experiment_id in sorted(REGISTRY)
        for row in evaluate(experiment_id, bench_result(experiment_id))
    ]
    (RESULTS_DIR / "claims.txt").write_text(render_claims(rows) + "\n")
    assert all(row.holds for row in rows)
