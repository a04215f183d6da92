"""Experiment registry; the result container lives in repro.core."""

from repro.core.result import ExperimentResult  # noqa: F401 - re-export

REGISTRY = {}


def experiment(experiment_id, claims=(), bench=None):
    """Decorator registering an experiment ``run`` function.

    ``claims`` is the experiment's CLAIMS table (see
    :mod:`repro.experiments.claims`). ``bench`` holds the keyword
    arguments its claims are checked at: the tier-1 claim tests, the
    benchmark suite, ``repro summary`` and ``examples/paper_report.py``
    all run it with them.
    """

    def register(func):
        REGISTRY[experiment_id] = func
        func.claims = tuple(claims)
        func.bench = dict(bench or {})
        return func

    return register


def run_experiment(experiment_id, **kwargs):
    """Run a registered experiment by its paper id (e.g. ``fig5``)."""
    try:
        func = REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(REGISTRY)}"
        ) from None
    return func(**kwargs)
