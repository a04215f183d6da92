"""The benchmark's workloads, one repetition per fresh interpreter.

``run.py`` starts this file once per repetition:

    python3 perfbench/workloads.py <mode> <workload> <seed> [golden]

and reads the one JSON line it prints. Every repetition of a run does
the same work on the same inputs, so the parent can average each step
across them. Modes:

* ``timed``: every step's host time, the reference kernel's time
  whenever 0.1 s of steps have passed, peak RSS and the cost-table
  counters. The ready mark is taken after set-up (imports, plus pool
  calibration on serve), so the parent's spawn-to-ready time is the
  repetition's set-up time.
* ``traced``: the same work under cProfile, folded into layers by
  :mod:`layers`.
* ``sanitized``: the same work under ``repro.analysis.sanitize.
  collecting()``, for the popped-event count and the replay digest.
* ``check``: byte-compiles ``src/repro`` and compares
  ``engine_fingerprints()`` with the golden file given as ``golden``.

Every mode but ``check`` also reports the repetition's output digest,
its operation and failure counts and any broken invariant, so a run's
outputs are checked before any of its times are used.
"""

import gc
import hashlib
import heapq
import inspect
import json
import os
import resource
import sys
import time
import traceback

#: fleet: sessions per repetition, simulated iterations per session, and
#: the seed of the one draw of devices from the paper population.
FLEET_SESSIONS = 256
FLEET_RUNS = 6
FLEET_DRAW_SEED = 0
#: serve: the pool is one fixed deployment (16 backends calibrated at a
#: fixed seed); the run's seed drives only the traffic.
SERVE_DEVICES = 16
SERVE_POOL_SEED = 0
SERVE_MAX_BATCH = 4
#: serve: service runs per repetition, each over this simulated window
#: (about 1.9k requests at the pool's saturation rate). Shorter windows
#: would put more steps beyond the p90 but spend more of the host time
#: building each run instead of serving it.
SERVE_WINDOWS = 32
SERVE_WINDOW_S = 2.0
#: report: the iteration count ``python -m repro report --fast`` uses.
REPORT_RUNS = 5
#: Seconds of steps between two timings of the reference kernel.
REFERENCE_EVERY_S = 0.1


def derive_seed(seed, index):
    """A 32-bit seed for item ``index`` of the run seeded ``seed``."""
    digest = hashlib.sha256(f"{seed}/{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


def combined_digest(digests):
    """sha256 over an ordered sequence of hex digests."""
    combined = hashlib.sha256()
    for digest in digests:
        combined.update(digest.encode("ascii"))
    return combined.hexdigest()


def device_groups(sessions):
    """The fleet's devices: one fixed draw from the paper population.

    Returns ``[(population, count), ...]``, one single-device population
    per distinct device config of the draw, in order of first
    appearance, with how many of the draw's sessions it had.
    """
    from dataclasses import replace

    from repro.fleet import Axis, expand_population, paper_population

    population = paper_population()
    counts = {}
    for spec in expand_population(population, sessions, seed=FLEET_DRAW_SEED):
        config = (
            ("soc", spec.soc),
            ("workload", (spec.model_key, spec.dtype)),
            ("context", spec.context),
            ("target", spec.target),
            ("thermal", spec.ambient_celsius),
            ("background", spec.background),
        )
        counts[config] = counts.get(config, 0) + 1
    return [
        (
            replace(population, **{
                axis: Axis(axis, ((value, 1.0),)) for axis, value in config
            }),
            count,
        )
        for config, count in counts.items()
    ]


class Fleet:
    """``run_fleet`` over the paper population, one process, no cache.

    A step is one session. Which devices a fleet holds sets most of its
    host cost (an inception_v3 session costs ten mobilenet ones, and
    background apps double a session), and 256 sessions drawn per seed
    moved sessions/s by 11% between seeds even with the workload and
    target counts fixed. So the devices are one fixed draw of 256 from
    the paper population (:func:`device_groups`), and the run seed
    drives the simulation: one ``run_fleet`` call per distinct device,
    seeded from the run seed.
    """

    def __init__(self, seed):
        from repro.fleet import run_fleet

        self._run_fleet = run_fleet
        self.groups = [
            (population, count, derive_seed(seed, index))
            for index, (population, count) in enumerate(
                device_groups(FLEET_SESSIONS)
            )
        ]

    def execute(self, stamp=None):
        on_session = None
        if stamp is not None:
            def on_session(_spec, _payload):
                stamp()
        return [
            (count, self._run_fleet(
                population, sessions=count, workers=1, seed=seed,
                runs=FLEET_RUNS, on_session=on_session,
            ))
            for population, count, seed in self.groups
        ]

    def summarize(self, fleets):
        from repro.fleet import session_payload_digest

        errors = []
        failed = 0
        digests = []
        for count, fleet in fleets:
            errors.extend(
                f"session {result.spec.session_id} of "
                f"{result.spec.model_key}/{result.spec.target}: {result.error}"
                for result in fleet.failures
            )
            failed += len(fleet.failures)
            if len(fleet) != count:
                errors.append(f"{len(fleet)} of {count} sessions returned")
                failed += count - len(fleet)
            digests.extend(
                session_payload_digest(result.to_dict())
                for result in fleet.results
            )
        return {
            "attempted": sum(count for count, _fleet in fleets),
            "failed": failed,
            "digest": combined_digest(digests),
            "errors": errors,
        }


class Serve:
    """Fault-free Poisson traffic at the pool's saturation rate.

    A step is one ``run_service`` window; operations are the requests
    offered. Window ``i`` draws its arrivals from the run seed and ``i``.
    """

    def __init__(self, seed):
        from repro.fleet import paper_population
        from repro.service import (
            ServiceConfig,
            build_pool,
            pool_capacity_rps,
            run_service,
        )

        self._run_service = run_service
        self.profiles, failures = build_pool(
            paper_population(), devices=SERVE_DEVICES, seed=SERVE_POOL_SEED,
        )
        if failures:
            raise RuntimeError(f"pool calibration failed: {failures}")
        rate_rps = pool_capacity_rps(self.profiles, SERVE_MAX_BATCH)
        self.configs = [
            ServiceConfig(
                rate_rps=rate_rps, duration_s=SERVE_WINDOW_S,
                max_batch=SERVE_MAX_BATCH, devices=SERVE_DEVICES,
                seed=derive_seed(seed, window),
            )
            for window in range(SERVE_WINDOWS)
        ]

    def execute(self, stamp=None):
        results = []
        for config in self.configs:
            results.append(self._run_service(config, profiles=self.profiles))
            if stamp is not None:
                stamp()
        return results

    def summarize(self, results):
        errors = []
        failed = 0
        for window, result in enumerate(results):
            settled = (
                result.completed + result.failed + result.dropped
                + result.rejected
            )
            if result.offered != settled:
                errors.append(
                    f"window {window}: ledger offered={result.offered} "
                    f"settled={settled}"
                )
                failed += result.offered
        return {
            "attempted": sum(result.offered for result in results),
            "failed": failed,
            "digest": combined_digest(result.digest() for result in results),
            "errors": errors,
        }


class Report:
    """Every registered experiment, in id order, at ``report --fast`` settings.

    A step is one experiment. The report is a fixed artifact, so the run
    seed is not used: passing it into the experiments moved the report's
    wall time by about 10% between seeds (the ``chaos`` and
    ``fleet_percentiles`` fleets draw their devices from it), and
    shuffling the order by it moved single experiments by 8%, since the
    first to need a model pays for its cold caches.
    """

    def __init__(self, _seed):
        from repro.experiments import REGISTRY, run_experiment

        self._run_experiment = run_experiment
        self.calls = []
        for experiment_id in sorted(REGISTRY):
            parameters = inspect.signature(REGISTRY[experiment_id]).parameters
            kwargs = {"runs": REPORT_RUNS} if "runs" in parameters else {}
            self.calls.append((experiment_id, kwargs))

    def execute(self, stamp=None):
        results = {}
        for experiment_id, kwargs in self.calls:
            try:
                results[experiment_id] = self._run_experiment(
                    experiment_id, **kwargs
                )
            except Exception:
                # A raising experiment is one failed operation; the rest
                # of the report still runs and is counted.
                traceback.print_exc()
                results[experiment_id] = None
            if stamp is not None:
                stamp()
        return results

    def summarize(self, results):
        from repro.analysis.engine_bench import canonical_digest

        digests = []
        errors = []
        for experiment_id in sorted(results):
            result = results[experiment_id]
            if result is None:
                errors.append(f"experiment {experiment_id} raised")
                continue
            digests.append(canonical_digest({
                "experiment_id": result.experiment_id,
                "headers": list(result.headers),
                "rows": [list(row) for row in result.rows],
                "series": result.series,
                "notes": result.notes,
            }))
        return {
            "attempted": len(results),
            "failed": len(errors),
            "digest": combined_digest(digests),
            "errors": errors,
        }


WORKLOADS = {"fleet": Fleet, "serve": Serve, "report": Report}


def reference_kernel():
    """Fixed pure-Python heap and dict work, like the engine's own.

    Its mean time over a run measures how fast the host ran the run,
    independently of the code under test.
    """
    heap = []
    table = {}
    for index in range(3000):
        heapq.heappush(heap, ((index * 7919) % 1000, index))
        table[index % 97] = table.get(index % 97, 0.0) + index * 0.5
    while heap:
        heapq.heappop(heap)


def time_reference():
    """Seconds one reference kernel takes, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class StepClock:
    """Times each step; times the reference kernel between steps."""

    def __init__(self):
        self.steps = []
        self.references = [time_reference()]
        self.since_reference = 0.0
        self.start = time.perf_counter()

    def stamp(self):
        step = time.perf_counter() - self.start
        self.steps.append(step)
        self.since_reference += step
        if self.since_reference >= REFERENCE_EVERY_S:
            self.references.append(time_reference())
            self.since_reference = 0.0
        self.start = time.perf_counter()


def timed(workload):
    from repro.soc.cost_tables import cost_table_stats

    ready = time.monotonic()
    clock = StepClock()
    raw = workload.execute(clock.stamp)
    out = workload.summarize(raw)
    out.update(
        ready=ready,
        wall=sum(clock.steps),
        steps=clock.steps,
        references=clock.references,
        cost_tables=cost_table_stats(),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return out


def traced(workload):
    import cProfile

    import layers
    import repro

    profiler = cProfile.Profile()
    start = time.perf_counter()
    raw = profiler.runcall(workload.execute)
    wall = time.perf_counter() - start
    folded = layers.fold(
        profiler.getstats(), os.path.dirname(os.path.realpath(repro.__file__))
    )
    out = workload.summarize(raw)
    out.update(wall=wall, **folded)
    return out


def sanitized(workload):
    from repro.analysis.sanitize import collecting

    start = time.perf_counter()
    with collecting() as collector:
        raw = workload.execute()
    wall = time.perf_counter() - start
    out = workload.summarize(raw)
    out.update(
        wall=wall, events=collector.event_count(),
        replay=collector.combined_digest(),
    )
    return out


def golden_mismatches(fingerprints, golden):
    """Dotted paths where fresh fingerprints differ from the golden."""
    if isinstance(fingerprints, dict) and isinstance(golden, dict):
        mismatches = []
        for key in sorted(set(fingerprints) | set(golden), key=str):
            if key not in fingerprints or key not in golden:
                mismatches.append(str(key))
                continue
            mismatches.extend(
                f"{key}.{path}" if path else str(key)
                for path in golden_mismatches(fingerprints[key], golden[key])
            )
        return mismatches
    return [] if fingerprints == golden else [""]


def check(golden_path):
    import compileall

    import repro
    from repro.analysis.engine_bench import engine_fingerprints

    compileall.compile_dir(
        os.path.dirname(os.path.realpath(repro.__file__)), quiet=1
    )
    with open(golden_path) as handle:
        golden = json.load(handle)
    mismatches = golden_mismatches(engine_fingerprints(), golden)
    return {"ok": not mismatches, "mismatches": mismatches}


MODES = {"timed": timed, "traced": traced, "sanitized": sanitized}


def main(argv):
    mode, name, seed = argv[1], argv[2], int(argv[3])
    if mode == "check":
        out = check(argv[4])
    else:
        out = MODES[mode](WORKLOADS[name](seed))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
