"""Golden pin of service-run outputs across commits.

The other service tests compare two runs of one build, so a change that
moves every run the same way still passes them. This test runs a fixed
set of configs, one per path that changes the pool's outstanding count
or reads it (admission under each policy, brownout, breaker ejection,
redispatch and terminal failure after batch faults, diurnal traffic,
and fault-free saturation of the calibrated 16-backend pool), and
compares each run's ``ServiceResult`` digest, sanitizer replay digest
and popped-event count against ``goldens/service_digests.json``.

Each case also asserts the property it is there for, so the golden
cannot silently stop covering a path. Recapture deliberately with::

    PYTHONPATH=src:. python -c "import json; \\
        from tests.service.test_service_golden import regenerate; \\
        print(json.dumps(regenerate(), indent=2, sort_keys=True))"
"""

import gc
import json
import pathlib

import pytest

from repro.analysis.sanitize import collecting
from repro.fleet import paper_population
from repro.service import (
    ServiceConfig,
    build_pool,
    pool_capacity_rps,
    run_service,
)
from tests.service.test_service import synthetic_pool

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "service_digests.json"

#: The two-backend synthetic pool's saturation rate.
CAPACITY_RPS = pool_capacity_rps(synthetic_pool(), 4)


def saturation():
    """The serve benchmark's deployment (16 devices calibrated at seed 0)
    offered its saturation rate for one 2 s window."""
    profiles, failures = build_pool(paper_population(), devices=16, seed=0)
    assert failures == []
    config = ServiceConfig(
        rate_rps=pool_capacity_rps(profiles, 4), duration_s=2.0,
        max_batch=4, devices=16, seed=1,
    )
    return config, profiles


def synthetic(backends=2, **overrides):
    config = dict(rate_rps=150.0, duration_s=0.5, seed=0)
    config.update(overrides)
    return ServiceConfig(**config), synthetic_pool(backends)


#: name -> (builder of (config, profiles), the property the case covers).
CASES = {
    "saturation": (
        saturation,
        lambda r: len(r.backends) == 16 and r.completed > 0
        and r.health == [] and r.failed == r.redispatched == 0,
    ),
    "drop": (
        lambda: synthetic(rate_rps=3.0 * CAPACITY_RPS, queue_capacity=8,
                          policy="drop"),
        lambda r: r.dropped > 0,
    ),
    "reject": (
        lambda: synthetic(rate_rps=3.0 * CAPACITY_RPS, queue_capacity=8,
                          policy="reject"),
        lambda r: r.rejected > 0,
    ),
    "shed": (
        lambda: synthetic(rate_rps=3.0 * CAPACITY_RPS, queue_capacity=8,
                          policy="shed"),
        lambda r: r.shed > 0,
    ),
    "brownout": (
        lambda: synthetic(rate_rps=2.0 * CAPACITY_RPS,
                          queue_capacity=32, policy="shed",
                          brownout_high=16, brownout_low=6),
        lambda r: r.brownout["episodes"] > 0,
    ),
    "ssr_storm": (
        lambda: synthetic(rate_rps=70.0, duration_s=0.8, slo_ms=100.0,
                          seed=3, ssr_storm_ms=300.0,
                          ssr_storm_backends=1, ssr_recovery_ms=250.0,
                          breaker_recovery_ms=250.0),
        lambda r: any(entry["opens"] > 0 for entry in r.health)
        and r.redispatched > 0,
    ),
    "faults_no_breakers": (
        lambda: synthetic(backends=4, backend_fault_rate=0.3,
                          breakers=False, redispatch_limit=1, seed=2),
        lambda r: r.failed > 0 and r.redispatched > 0 and r.health == [],
    ),
    "diurnal": (
        lambda: synthetic(arrivals="diurnal", slo_ms=40.0),
        lambda r: r.config["arrivals"] == "diurnal" and r.completed > 0,
    ),
}


def run_case(name):
    """One sanitized run: the result plus its golden fingerprint."""
    build, _covers = CASES[name]
    config, profiles = build()
    with collecting() as collector:
        result = run_service(config, profiles=profiles)
    return result, {
        "digest": result.digest(),
        "replay": collector.combined_digest(),
        "events": collector.event_count(),
    }


def regenerate():
    return {name: run_case(name)[1] for name in CASES}


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_service_run_matches_the_golden(name):
    result, fingerprint = run_case(name)
    _build, covers = CASES[name]
    assert covers(result), name
    assert fingerprint == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_finished_window_frees_itself(name, monkeypatch):
    """A finished window leaves nothing for the cyclic collector: its
    simulator, backends and requests are freed by reference counting
    when ``run_service`` returns. Unsanitized, as the serve benchmark
    runs it (a sanitizer and its simulator refer to each other)."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    build, _covers = CASES[name]
    config, profiles = build()
    # Calibration garbage can take more than one pass to free.
    while gc.collect():
        pass
    enabled = gc.isenabled()
    gc.disable()
    try:
        run_service(config, profiles=profiles)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_depth_samples_hold_no_object_per_sample(monkeypatch):
    """A kept result's queue-depth samples are flat columns, not one
    GC-tracked ``[time_ms, outstanding]`` list each; iterating them
    renders exactly the pairs the JSON export holds."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    config, profiles = saturation()
    while gc.collect():
        pass
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = run_service(config, profiles=profiles)
        while gc.collect():
            pass
        grown = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    samples = len(result.depth_series)
    assert samples > 1000
    assert grown < samples // 10, (grown, samples)
    exported = json.loads(result.to_json())["depth_series"]
    assert list(result.depth_series) == exported
