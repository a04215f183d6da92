"""Benchmark of the repro simulator: the fleet, serve and report workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

Every repetition runs in a fresh interpreter (``workloads.py``), so the
model-graph and cost-table caches start empty, as they do for a user.
All repetitions of a run do the same work on the same inputs. A timing
is taken from each step's mean time across them, scaled by the mean
time of a fixed reference kernel timed between the steps: the hosts
this runs on are shared, and other tenants slow them for seconds to
minutes at a time (README.md). Before any number is used, the run
checks the outputs: the engine's golden fingerprints, every
repetition's invariants, and that all repetitions produce the same
output digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of untraced repetitions; ``--trace 1``
reports per-layer metrics from cProfile-traced repetitions. The lines
before it log each repetition's digest. README.md says why each
workload exists and what each metric should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(
    ROOT, "benchmarks", "results", "ENGINE_golden_digests.json"
)
WORKER = os.path.join(HERE, "workloads.py")

WORKLOADS = tuple(workloads.WORKLOADS)
#: Wall budget of one invocation; every child gets what is left of it.
BUDGET_S = 170.0
MIN_REPS = 3
#: The reference kernel's mean time on the host this benchmark was tuned
#: on. Times are scaled by this over the run's own mean, so they read as
#: host time at that speed.
REFERENCE_S = 0.003
#: Traced repetitions per trace run: ``calls_in`` must repeat exactly.
MIN_TRACED = 2

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"self_share": "share", "calls_in": "count"}
TRACE_UNITS = {
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "soc.cost_table_hit_ratio": "ratio",
    "traced.overhead_x": "x",
}


class ChildFailed(Exception):
    """A repetition's process failed, timed out, or printed no result."""


class Runner:
    """Starts one workload's child processes and checks what they return."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.results = []
        self.errors = []

    def child(self, mode):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (SRC, env.get("PYTHONPATH")) if path
        )
        env.pop("REPRO_SANITIZE", None)
        timeout = self.deadline - time.monotonic()
        rep = len(self.results)
        if timeout <= 0:
            raise ChildFailed(f"{mode} repetition {rep}: out of time")
        argv = [
            sys.executable, WORKER, mode, self.workload, str(self.seed), GOLDEN,
        ]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} repetition {rep}: timed out") from None
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            out = None
        if not isinstance(out, dict):
            raise ChildFailed(
                f"{mode} repetition {rep}: exited {proc.returncode} "
                "without a result"
            )
        if "ready" in out:
            out["setup"] = out["ready"] - spawned
        if mode != "check":
            self.results.append(out)
            self.errors.extend(out["errors"])
            setup = f" setup={out['setup']:.4f}s" if "setup" in out else ""
            print(
                f"{mode} rep={rep} "
                f"attempted={out['attempted']} failed={out['failed']} "
                f"wall={out['wall']:.3f}s{setup} digest={out['digest']}"
            )
        return out

    def check_outputs(self):
        """All repetitions must agree on their output digest."""
        digests = {out["digest"] for out in self.results}
        if len(digests) > 1:
            self.errors.append(
                f"repetitions disagree on the output digest "
                f"({len(digests)} distinct)"
            )

    def counts(self):
        return (
            sum(out["attempted"] for out in self.results),
            sum(out["failed"] for out in self.results),
        )


def repeat(seconds, make, minimum):
    """Call ``make()`` until ``seconds`` are spent, at least ``minimum`` times."""
    start = time.monotonic()
    durations = []
    while True:
        began = time.monotonic()
        make()
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if (
            len(durations) >= minimum
            and elapsed + statistics.median(durations) > seconds
        ):
            return


def host_scale(reps):
    """Factor that turns this run's host times into reference-speed ones."""
    references = [seconds for out in reps for seconds in out["references"]]
    mean = statistics.fmean(references)
    print(
        f"reference kernel: mean {mean * 1e3:.4f} ms of {len(references)} "
        f"timings; times scaled by {REFERENCE_S / mean:.4f}"
    )
    return REFERENCE_S / mean


def timed_run(runner, seconds):
    reps = []
    repeat(seconds, lambda: reps.append(runner.child("timed")), MIN_REPS)
    if len({len(out["steps"]) for out in reps}) > 1:
        runner.errors.append("repetitions ran different numbers of steps")
        return {}
    # Each step's mean time over the repetitions, over the reference
    # kernel's mean time in the same span: the kernel is timed every 0.1 s
    # of steps, so bursts of contention from other tenants slow both
    # alike. (A step's best time fails here: under steady bursts a step
    # of half a second never runs in the clear, a 3 ms kernel often does.)
    steps = [
        statistics.fmean(times) for times in zip(*(out["steps"] for out in reps))
    ]
    scale = host_scale(reps)
    wall = sum(steps) * scale
    return {
        "throughput_per_s": reps[0]["attempted"] / wall,
        "step_ms_p50": statistics.median(steps) * scale * 1e3,
        "step_ms_p90": statistics.quantiles(steps, n=10)[8] * scale * 1e3,
        "wall_s": wall,
        "setup_s": statistics.median(out["setup"] for out in reps) * scale,
        "peak_rss_mb": statistics.median(out["rss_mb"] for out in reps),
    }


def traced_run(runner, seconds):
    sanitized = runner.child("sanitized")
    print(f"replay digest={sanitized['replay']} events={sanitized['events']}")
    traced, untraced = [], []

    def make():
        traced.append(runner.child("traced"))
        untraced.append(runner.child("timed"))

    repeat(seconds, make, MIN_TRACED)

    outside = sorted({name for out in traced for name in out["outside"]})
    if outside:
        runner.errors.append(f"repro code outside every layer: {outside}")
    names = sorted(traced[0]["layers"])
    calls_in = {name: traced[0]["layers"][name]["calls_in"] for name in names}
    for out in traced[1:]:
        again = {name: out["layers"][name]["calls_in"] for name in names}
        if again != calls_in:
            runner.errors.append("calls_in differ between traced repetitions")
    self_s = {
        name: sum(out["layers"][name]["self_s"] for out in traced)
        for name in names
    }
    total = sum(self_s.values())
    shares = {name: self_s[name] / total for name in names}
    if abs(sum(shares.values()) - 1.0) > 1e-9:
        runner.errors.append("layer self shares do not sum to 1")

    metrics = {}
    for name in names:
        metrics[f"{name}.self_share"] = shares[name]
        metrics[f"{name}.calls_in"] = calls_in[name]
    untraced_wall = statistics.median(out["wall"] for out in untraced)
    scale = host_scale(untraced)
    cost_tables = untraced[0]["cost_tables"]
    lookups = cost_tables["hits"] + cost_tables["misses"]
    metrics.update({
        "sim.events": sanitized["events"],
        "sim.host_us_per_event": (
            untraced_wall * scale / sanitized["events"] * 1e6
        ),
        "soc.cost_table_hit_ratio": cost_tables["hits"] / lookups,
        "traced.overhead_x": (
            statistics.median(out["wall"] for out in traced) / untraced_wall
        ),
    })
    return metrics


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in TRACE_UNITS:
        return TRACE_UNITS[name]
    return LAYER_UNITS[name.rpartition(".")[2]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (
        os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))
        and os.path.isfile(GOLDEN)
    ):
        print(
            f"perfbench: no repro source tree and golden digests under "
            f"{ROOT}; run from the root of a repro checkout",
            file=sys.stderr,
        )
        return 2

    runner = Runner(
        args.workload, args.seed, time.monotonic() + BUDGET_S
    )
    metrics = {}
    try:
        check = runner.child("check")
        if not check["ok"]:
            runner.errors.append(
                f"golden engine fingerprints moved: {check['mismatches']}"
            )
        else:
            run = traced_run if args.trace else timed_run
            metrics = run(runner, args.seconds)
            runner.check_outputs()
    except ChildFailed as exc:
        runner.errors.append(str(exc))
    attempted, failed = runner.counts()
    attempted = max(attempted, 1)
    correct = not runner.errors and failed == 0
    if not correct:
        # No operation of a run that fails the output check counts as done.
        failed = attempted
    for error in runner.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(metrics.items())
        } if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
