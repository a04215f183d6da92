#!/usr/bin/env python
"""Regenerate every table and figure of the paper in one run.

Prints each registered experiment's table at its bench settings, the
ones ``benchmarks/results/`` is committed at and every claim is checked
at. This is the script behind EXPERIMENTS.md.

Run:  python examples/paper_report.py
"""

import time

from repro.experiments import REGISTRY, run_experiment


def main():
    total_start = time.perf_counter()
    for experiment_id, run in sorted(REGISTRY.items()):
        start = time.perf_counter()
        result = run_experiment(experiment_id, **run.bench)
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"(regenerated in {elapsed:.1f}s)\n")
    print(
        f"All {len(REGISTRY)} experiments regenerated in "
        f"{time.perf_counter() - total_start:.1f}s"
    )


if __name__ == "__main__":
    main()
