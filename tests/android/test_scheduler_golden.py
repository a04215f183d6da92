"""Golden pin of scheduler outputs across commits.

The other scheduler tests compare runs of one build, mostly with DVFS
off, and the engine golden replays only a few fleet sessions. This test
runs one small sd845 scenario per scheduler path, with DVFS on: the
randomized wake-all of idle cores, big-cluster affinity beside a hog,
the misfit handoff to a faster idle core, nice weights, each governor
mode (schedutil under a frequency cap), thermal throttling, and a traced
run. It compares each run's fingerprint against
``goldens/scheduler_digests.json``: the sanitizer replay digest and
popped-event count, every thread's CPU time, migrations, context
switches and cores used, the CPU energy (total and per label), each
cluster's final frequency and, for the traced run, the sha256 of its
Chrome trace export.

Each case also asserts the property it is there for, so the golden
cannot silently stop covering a path. Recapture deliberately with::

    PYTHONPATH=src:. python -c "import json; \\
        from tests.android.test_scheduler_golden import regenerate; \\
        print(json.dumps(regenerate(), indent=2, sort_keys=True))"
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis.sanitize import collecting
from repro.android import Kernel, Sleep, Work
from repro.observability import to_chrome_trace
from repro.sim import Simulator
from repro.soc import make_soc

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "scheduler_digests.json"


def burn(work_us, label):
    yield Work(work_us, label=label)


def bursts(count, work_us, sleep_us, label):
    for _ in range(count):
        yield Work(work_us, label=label)
        yield Sleep(sleep_us)


def wake_all(sim, soc, kernel):
    """Unpinned threads that sleep and rewake while every core is idle,
    so each wakeup shuffles all eight idle cores."""
    threads = [
        kernel.spawn(
            bursts(30, 400.0 + 150.0 * index, 2_500.0, f"wake{index}"),
            name=f"waker{index}",
        )
        for index in range(3)
    ]
    sim.run(until=sim.all_of([thread.done for thread in threads]))


def big_affinity(sim, soc, kernel):
    """A ``spawn_on_big`` thread contending with unpinned hogs."""
    hogs = [
        kernel.spawn(burn(20_000.0, "hog"), name=f"hog{index}")
        for index in range(5)
    ]
    pinned = kernel.spawn_on_big(
        bursts(20, 1_500.0, 1_000.0, "big"), name="big-worker"
    )
    sim.run(until=sim.all_of([t.done for t in hogs] + [pinned.done]))


def misfit(sim, soc, kernel):
    """An unpinned thread starts on a little core while pinned blockers
    hold the big cluster; once they finish, its next slice end hands it
    over to an idle big core through a zero-delay timeout."""
    big = {core.core_id for core in soc.big_cores}
    blockers = [
        kernel.spawn(burn(4_000.0, "blocker"), name=f"blocker{index}",
                     affinity=big)
        for index in range(4)
    ]
    mover = kernel.spawn(burn(30_000.0, "mover"), name="mover")
    sim.run(until=sim.all_of([t.done for t in blockers] + [mover.done]))


def nice_weights(sim, soc, kernel):
    """Three nice levels sharing one big core."""
    core = {soc.big_cores[0].core_id}
    for nice in (-5, 0, 5):
        kernel.spawn(burn(40_000.0, f"nice{nice}"), name=f"nice{nice}",
                     nice=nice, affinity=core)
    sim.run(until=60_000.0)


def mixed_load(sim, soc, kernel):
    """Bursty unpinned threads beside a big-cluster hog."""
    hog = kernel.spawn_on_big(burn(30_000.0, "hog"), name="hog")
    threads = [
        kernel.spawn(
            bursts(15, 800.0 * (index + 1), 3_000.0, f"burst{index}"),
            name=f"burst{index}",
        )
        for index in range(3)
    ]
    sim.run(until=sim.all_of([hog.done] + [t.done for t in threads]))


def capped_schedutil(sim, soc, kernel):
    """schedutil under a big-cluster ceiling (NNAPI's SUSTAINED_SPEED)."""
    soc.big_cluster.governor.max_fraction = 0.85
    mixed_load(sim, soc, kernel)


def throttled(sim, soc, kernel):
    """A hot die under full load: the thermal loop derates every core."""
    soc.thermal.temperature = 76.0
    for index in range(8):
        kernel.spawn(burn(200_000.0, "hot"), name=f"hot{index}")
    sim.run(until=300_000.0)


def ran_on(sim, kernel, name):
    thread = next(t for t in kernel.threads if t.name == name)
    return thread.stats.cores_used


def big_ids(soc):
    return {core.core_id for core in soc.big_cores}


def governor_khz(soc):
    return {cluster.name: cluster.governor.current_khz
            for cluster in soc.clusters}


#: name -> (scenario, Simulator/Kernel/SoC options, the property the
#: case covers, called with (sim, soc, kernel)).
CASES = {
    "wake_all": (
        wake_all, {},
        lambda sim, soc, kernel: sum(
            thread.stats.migrations for thread in kernel.threads
        ) > 0 and len(set().union(
            *(thread.stats.cores_used for thread in kernel.threads)
        )) > 1,
    ),
    "big_affinity": (
        big_affinity, {},
        lambda sim, soc, kernel: ran_on(sim, kernel, "big-worker")
        <= big_ids(soc)
        and any(ran_on(sim, kernel, f"hog{i}") - big_ids(soc)
                for i in range(5)),
    ),
    "misfit": (
        misfit, {},
        lambda sim, soc, kernel: ran_on(sim, kernel, "mover") - big_ids(soc)
        and ran_on(sim, kernel, "mover") & big_ids(soc)
        and any(record.label == "timeout(0.0)"
                for record in sim.sanitizer.stream.records),
    ),
    "nice_weights": (
        nice_weights, {},
        lambda sim, soc, kernel: [
            thread.stats.cpu_time_us for thread in kernel.threads
        ] == sorted(
            (thread.stats.cpu_time_us for thread in kernel.threads),
            reverse=True,
        ),
    ),
    "schedutil_capped": (
        capped_schedutil, {},
        lambda sim, soc, kernel: soc.big_cluster.governor.current_khz
        <= soc.big_cluster.opp.ceiling_for(0.85)
        < soc.big_cluster.opp.max_khz,
    ),
    "performance": (
        mixed_load, {"governor": "performance"},
        lambda sim, soc, kernel: governor_khz(soc) == {
            cluster.name: cluster.opp.max_khz for cluster in soc.clusters
        },
    ),
    "powersave": (
        mixed_load, {"governor": "powersave"},
        lambda sim, soc, kernel: governor_khz(soc) == {
            cluster.name: cluster.opp.min_khz for cluster in soc.clusters
        },
    ),
    "thermal": (
        throttled, {"thermal": True},
        lambda sim, soc, kernel: soc.thermal.is_throttling and all(
            cluster.thermal_factor < 1.0 for cluster in soc.clusters
        ),
    ),
    "traced": (
        mixed_load, {"trace": True},
        lambda sim, soc, kernel: sim.trace.counter_total("ctx_switch") > 0
        and sim.trace.counter_total("migration") > 0,
    ),
}


def run_case(name):
    """One sanitized run: the simulator, SoC and kernel it ran, plus its
    golden fingerprint."""
    scenario, options, _covers = CASES[name]
    with collecting() as collector:
        sim = Simulator(seed=0, trace=options.get("trace", False))
        soc = make_soc(
            sim, "sd845", governor_mode=options.get("governor", "schedutil")
        )
        kernel = Kernel(sim, soc, enable_thermal=options.get("thermal", False))
        scenario(sim, soc, kernel)
    fingerprint = {
        "replay": collector.combined_digest(),
        "events": collector.event_count(),
        "threads": {
            thread.name: {
                "cpu_time_us": thread.stats.cpu_time_us,
                "migrations": thread.stats.migrations,
                "context_switches": thread.stats.context_switches,
                "cores_used": sorted(thread.stats.cores_used),
            }
            for thread in kernel.threads
        },
        "cpu_uj": soc.energy.cpu_uj,
        "by_label": dict(soc.energy.by_label),
        "khz": governor_khz(soc),
    }
    if sim.trace is not None:
        export = json.dumps(to_chrome_trace(sim.trace), sort_keys=True)
        fingerprint["chrome_sha256"] = hashlib.sha256(
            export.encode("utf-8")
        ).hexdigest()
    return (sim, soc, kernel), fingerprint


def regenerate():
    return {name: run_case(name)[1] for name in CASES}


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_scheduler_run_matches_the_golden(name):
    run, fingerprint = run_case(name)
    _scenario, _options, covers = CASES[name]
    assert covers(*run), name
    assert fingerprint == json.loads(GOLDEN.read_text())[name]
