"""Session-wide fixtures."""

import pytest

from repro.experiments import REGISTRY, run_experiment


@pytest.fixture(scope="session")
def bench_result():
    """Each experiment's result at its bench settings, run once per session."""
    results = {}

    def get(experiment_id):
        if experiment_id not in results:
            results[experiment_id] = run_experiment(
                experiment_id, **REGISTRY[experiment_id].bench
            )
        return results[experiment_id]

    return get
