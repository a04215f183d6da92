"""Crash-path tests for the fleet supervisor and run journal.

The toy tasks below stand in for session simulation: they are
module-level (picklable into pool workers) and communicate one-shot
crash/hang behaviour through flag files, so a victim misbehaves exactly
once and then completes — which is what lets the tests assert the
supervision contract: whatever the crash/kill/timeout interleaving,
the final results are bit-identical to an undisturbed run.
"""

import json
import os
import signal
import time

import pytest

from repro.fleet import (
    QUARANTINE_ERROR,
    RunJournal,
    Supervisor,
    run_fleet,
    run_key_for,
)
from repro.fleet.population import expand_population, paper_population
from repro.fleet.supervisor import JOURNAL_VERSION


def _ok_task(payload):
    return {"spec": dict(payload), "runs": [{"value": payload["x"] * 2}]}


def _kill_once_task(payload):
    """SIGKILL the worker on the victim's first execution only."""
    flag = payload.get("flag")
    if payload.get("victim") and flag and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _ok_task(payload)


def _hang_once_task(payload):
    """Wedge the worker on the victim's first execution only."""
    flag = payload.get("flag")
    if payload.get("victim") and flag and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        time.sleep(3600)
    return _ok_task(payload)


def _always_kill_task(payload):
    if payload.get("victim"):
        os.kill(os.getpid(), signal.SIGKILL)
    return _ok_task(payload)


def _sim_error_task(payload):
    if payload.get("victim"):
        return {
            "spec": dict(payload), "runs": [],
            "error": {"type": "FaultInjected", "message": "deterministic"},
        }
    return _ok_task(payload)


def _raise_for_victim_task(payload):
    if payload.get("victim"):
        raise ValueError(f"bad spec {payload['x']}")
    return _ok_task(payload)


def _items(count, victim=None, flag=None):
    return [
        (
            index,
            {
                "x": index,
                "victim": index == victim,
                "flag": str(flag) if flag is not None else None,
            },
        )
        for index in range(count)
    ]


def _expected(items):
    return {key: _ok_task(payload) for key, payload in items}


def test_sigkilled_worker_respawns_pool_and_results_are_identical(tmp_path):
    items = _items(6, victim=2, flag=tmp_path / "killed")
    supervisor = Supervisor(
        workers=2, task=_kill_once_task, backoff_base_s=0.01
    )
    results = supervisor.run(items)
    assert results == _expected(items)
    assert supervisor.stats.respawns >= 1
    assert supervisor.stats.crashes >= 1
    assert supervisor.stats.quarantined == 0
    # Every session produced exactly one final payload.
    assert supervisor.stats.completed == len(items)


def test_hung_session_is_killed_at_deadline_and_retried(tmp_path):
    items = _items(4, victim=1, flag=tmp_path / "hung")
    supervisor = Supervisor(
        workers=2, task=_hang_once_task,
        session_timeout_s=0.5, backoff_base_s=0.01,
    )
    start = time.monotonic()
    results = supervisor.run(items)
    assert results == _expected(items)
    # The deadline kill named its culprit: exactly one timeout strike,
    # and the innocents were never struck.
    assert supervisor.stats.timeouts == 1
    assert supervisor.stats.quarantined == 0
    assert supervisor.stats.respawns >= 1
    # The run did not wait out the hour-long hang.
    assert time.monotonic() - start < 30.0


def test_poisoned_spec_is_quarantined_with_structured_error(tmp_path):
    items = _items(3, victim=0)
    supervisor = Supervisor(
        workers=2, task=_always_kill_task,
        max_crashes=2, backoff_base_s=0.01,
    )
    results = supervisor.run(items)
    # The healthy sessions completed despite the poison pill.
    for key, payload in items[1:]:
        assert results[key] == _ok_task(payload)
    error = results[0]["error"]
    assert error["type"] == QUARANTINE_ERROR
    assert error["attempts"] == 2
    assert error["crashes"] == 2
    assert results[0]["runs"] == []
    assert supervisor.stats.quarantined == 1
    # Quarantine is a bound: 2 strikes, not an infinite respawn loop.
    assert supervisor.stats.crashes >= 2


def test_sim_errors_retry_individually_without_blocking_others():
    items = _items(5, victim=3)
    supervisor = Supervisor(
        workers=2, task=_sim_error_task, session_retries=2
    )
    results = supervisor.run(items)
    for key, payload in items:
        if key == 3:
            continue
        assert results[key] == _ok_task(payload)
    # retries=2 means three attempts total, recorded in the error.
    assert results[3]["error"]["attempts"] == 3
    assert supervisor.stats.sim_retries == 2
    # No host strikes for a deterministic simulation failure.
    assert supervisor.stats.crashes == 0
    assert supervisor.stats.timeouts == 0


def test_task_exception_is_a_structured_error_for_its_key_only():
    items = _items(2, victim=1)
    supervisor = Supervisor(workers=2, task=_raise_for_victim_task)
    results = supervisor.run(items)
    assert results[0] == _ok_task(items[0][1])
    assert results[1] == {
        "spec": dict(items[1][1]),
        "runs": [],
        "error": {"type": "ValueError", "message": "bad spec 1"},
    }
    # An exception raised by the task is neither a host strike nor a
    # simulation retry.
    assert supervisor.stats.crashes == 0
    assert supervisor.stats.timeouts == 0
    assert supervisor.stats.sim_retries == 0


def test_serial_and_pooled_results_are_identical(tmp_path):
    items = _items(6, victim=4, flag=tmp_path / "killed")
    serial = Supervisor(workers=1, task=_kill_once_task)
    # Serial runs in-process: the flag prevents the self-SIGKILL only
    # after the pooled run took it, so give the serial run its own.
    serial_items = _items(6)
    assert serial.run(serial_items) == _expected(serial_items)


# -- run journal --------------------------------------------------------


def test_run_journal_records_and_resumes(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path, "key-a") as journal:
        journal.record("d1", {"spec": {"x": 1}, "runs": []})
        journal.record("d2", {"spec": {"x": 2}, "runs": []})
        journal.record("d1", {"spec": {"ignored": True}, "runs": []})
    with RunJournal(path, "key-a") as journal:
        assert set(journal.recorded) == {"d1", "d2"}
        # Idempotent: the duplicate record never overwrote the first.
        assert journal.recorded["d1"] == {"spec": {"x": 1}, "runs": []}


def test_run_journal_truncates_torn_tail(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path, "key-a") as journal:
        journal.record("d1", {"spec": {"x": 1}, "runs": []})
    with open(path, "a") as handle:
        handle.write('{"digest": "d2", "payl')  # crash mid-append
    with RunJournal(path, "key-a") as journal:
        assert set(journal.recorded) == {"d1"}
        journal.record("d3", {"spec": {"x": 3}, "runs": []})
    lines = [
        json.loads(line)
        for line in path.read_text().splitlines()
    ]
    assert lines[0] == {"journal": JOURNAL_VERSION, "run_key": "key-a"}
    assert [line["digest"] for line in lines[1:]] == ["d1", "d3"]


def test_run_journal_truncates_at_a_corrupt_complete_line(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path, "key-a") as journal:
        journal.record("d1", {"spec": {"x": 1}, "runs": []})
    good_size = path.stat().st_size
    good_line = {"digest": "d3", "payload": {"spec": {"x": 3}, "runs": []}}
    with open(path, "a") as handle:
        handle.write('{"digest": "d2", "payload": }\n')  # newline-ended
        handle.write(json.dumps(good_line) + "\n")
    with RunJournal(path, "key-a") as journal:
        # Nothing after the corrupt line is trusted, good lines included.
        assert set(journal.recorded) == {"d1"}
    assert path.stat().st_size == good_size


def test_run_journal_discards_foreign_run(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path, "key-a") as journal:
        journal.record("d1", {"spec": {"x": 1}, "runs": []})
    with RunJournal(path, "key-b") as journal:
        assert journal.recorded == {}


def test_run_key_covers_work_list_and_retry_bound():
    specs = expand_population(paper_population(), 4, seed=0)
    other = expand_population(paper_population(), 4, seed=1)
    assert run_key_for(specs) == run_key_for(specs)
    assert run_key_for(specs) != run_key_for(other)
    assert run_key_for(specs) != run_key_for(specs, session_retries=2)


def test_interrupted_fleet_resumes_from_journal_digest_identical(tmp_path):
    journal = tmp_path / "fleet.jsonl"
    kwargs = dict(sessions=6, workers=1, seed=0, runs=2)
    baseline = run_fleet(**kwargs)

    seen = []

    def interrupt(spec, payload):
        seen.append(spec.session_id)
        if len(seen) == 3:
            raise KeyboardInterrupt("operator ^C")

    with pytest.raises(KeyboardInterrupt):
        run_fleet(journal=journal, on_session=interrupt, **kwargs)

    resumed = run_fleet(journal=journal, **kwargs)
    # The resume re-simulated only the unfinished sessions ...
    assert resumed.journal_hits == 3
    assert resumed.simulated == 3
    # ... and assembled the exact result an undisturbed run produces.
    assert [result.to_dict() for result in resumed] == [
        result.to_dict() for result in baseline
    ]


def test_journal_also_resumes_failed_sessions(tmp_path):
    journal = tmp_path / "chaos.jsonl"
    from repro.fleet.population import chaos_population

    kwargs = dict(
        population=chaos_population(), sessions=12, workers=1, seed=5,
        runs=2, fault_rate=0.25, session_retries=1,
    )
    first = run_fleet(journal=journal, **kwargs)
    assert first.failures, "fixture must produce failed sessions"
    resumed = run_fleet(journal=journal, **kwargs)
    # Unlike the cache, the journal resumes failures too: within one
    # run's retry policy their structured errors are final.
    assert resumed.simulated == 0
    assert resumed.journal_hits == len(first.results)
    assert [result.to_dict() for result in resumed] == [
        result.to_dict() for result in first
    ]
