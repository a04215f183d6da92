"""Chaos fleets: partial results, structured errors, fault determinism."""

import json

import pytest

from repro.fleet import (
    aggregate_fleet,
    chaos_population,
    run_fleet,
)

#: A (seed, sessions) pair known to produce both failed vendor-runtime
#: sessions and degraded-but-complete NNAPI sessions at rate 0.25
#: (faults are deterministic, so this is stable by construction).
CHAOS_SEED = 5
CHAOS_SESSIONS = 12


def chaos_fleet(workers=1, cache_dir=None, rate=0.25, seed=CHAOS_SEED):
    return run_fleet(
        population=chaos_population(),
        sessions=CHAOS_SESSIONS,
        workers=workers,
        seed=seed,
        runs=4,
        fault_rate=rate,
        cache_dir=cache_dir,
    )


def _dicts(fleet):
    return [result.to_dict() for result in fleet]


def test_faulting_fleet_is_partial_with_structured_errors():
    fleet = chaos_fleet()
    assert len(fleet) == CHAOS_SESSIONS
    failures = fleet.failures
    ok = fleet.ok_results
    assert failures, "expected at least one dead vendor-runtime session"
    assert ok, "expected surviving sessions"
    assert len(failures) + len(ok) == CHAOS_SESSIONS
    for result in failures:
        assert result.runs == []
        assert result.error["type"] in (
            "FastRpcTimeout", "FastRpcSessionDeath"
        )
        assert "injected" in result.error["message"]
        assert result.error["attempts"] >= 1
        # Only the un-recovering vendor runtime dies.
        assert result.spec.target == "snpe-dsp"


def test_single_raising_session_does_not_kill_multiworker_fleet():
    fleet = chaos_fleet(workers=3)
    # The regression this guards: a raising worker used to propagate
    # through the bare pool.map and abort every other session.
    assert len(fleet) == CHAOS_SESSIONS
    assert fleet.failures and fleet.ok_results


def test_nnapi_sessions_degrade_instead_of_dying():
    fleet = chaos_fleet()
    nnapi = [r for r in fleet if r.spec.target == "nnapi"
             and r.spec.dtype == "int8"]
    assert all(r.ok for r in nnapi)
    assert any(r.degradation for r in fleet.ok_results)
    for result in fleet.ok_results:
        if result.degradation:
            summary = result.degradation
            assert set(summary) >= {
                "faults", "retries", "fallbacks", "degraded_invokes",
            }


def test_session_retries_are_bounded_and_recorded():
    fleet = run_fleet(
        population=chaos_population(), sessions=CHAOS_SESSIONS,
        seed=CHAOS_SEED, runs=4, fault_rate=0.25, session_retries=2,
    )
    for result in fleet.failures:
        # Deterministic faults fail on every attempt; all were burned.
        assert result.error["attempts"] == 3
    with pytest.raises(ValueError):
        run_fleet(sessions=2, session_retries=-1)


def test_failed_sessions_are_never_cached(tmp_path):
    cache_dir = tmp_path / "chaos-cache"
    first = chaos_fleet(cache_dir=str(cache_dir))
    failed = len(first.failures)
    assert failed > 0
    second = chaos_fleet(cache_dir=str(cache_dir))
    # Every completed session hits the cache; every failure re-simulates.
    assert second.cache_hits == CHAOS_SESSIONS - failed
    assert second.simulated == failed
    assert _dicts(first) == _dicts(second)


def test_fault_rate_changes_cache_key_but_zero_rate_matches_legacy(tmp_path):
    cache_dir = str(tmp_path / "cache")
    baseline = run_fleet(sessions=6, seed=0, runs=3, cache_dir=cache_dir)
    assert baseline.simulated == 6
    # A faulting sweep must not collide with the fault-free entries.
    chaotic = run_fleet(sessions=6, seed=0, runs=3, cache_dir=cache_dir,
                        fault_rate=0.2)
    assert chaotic.cache_hits == 0
    # Re-running fault-free hits all six original entries.
    again = run_fleet(sessions=6, seed=0, runs=3, cache_dir=cache_dir)
    assert again.cache_hits == 6


def test_chaos_fleet_percentiles_bit_identical_across_runs_and_workers():
    runs = [
        chaos_fleet(workers=1),
        chaos_fleet(workers=1),
        chaos_fleet(workers=3),
    ]
    rendered = [
        aggregate_fleet(fleet).to_experiment_result().render()
        for fleet in runs
    ]
    assert rendered[0] == rendered[1] == rendered[2]
    blobs = [json.dumps(_dicts(fleet), sort_keys=True) for fleet in runs]
    assert blobs[0] == blobs[1] == blobs[2]


def test_aggregate_excludes_failures_and_notes_them():
    fleet = chaos_fleet()
    aggregate = aggregate_fleet(fleet)
    assert aggregate.failed_sessions == len(fleet.failures)
    assert aggregate.sessions == len(fleet.ok_results)
    assert any("partial fleet" in note for note in aggregate.notes)


def test_all_failed_fleet_raises_with_diagnosis():
    from repro.fleet import FleetResult, SessionResult, SessionSpec

    spec = SessionSpec(
        session_id=0, soc="sd845", model_key="mobilenet_v1", dtype="int8",
        context="app", target="snpe-dsp", runs=4, seed=0,
        ambient_celsius=33.0, background=None, fault_rate=0.5,
    )
    dead = SessionResult(spec=spec, runs=[],
                         error={"type": "FastRpcTimeout", "message": "x"})
    fleet = FleetResult(seed=0, workers=1, results=[dead])
    with pytest.raises(ValueError, match="all 1 fleet sessions failed"):
        aggregate_fleet(fleet)


def test_chaos_trace_export_is_identical_across_reruns(tmp_path):
    """Same seed + same FaultPlan => byte-identical chrome-trace JSON."""
    from repro.observability import record_trace, write_chrome_trace

    paths = []
    for index in range(2):
        path = tmp_path / f"chaos{index}.json"
        with record_trace("chaos") as session:
            write_chrome_trace(session.sim.trace, str(path),
                               process_name="repro:chaos")
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    events = json.loads(paths[0].read_text())["traceEvents"]
    fault_marks = [e for e in events
                   if e["ph"] == "i" and e["name"].startswith("fault:")]
    assert fault_marks, "chaos scenario should inject faults"
