"""RetryPolicy and DegradationReport accounting."""

import pytest

from repro.faults import (
    NO_RETRY,
    DegradationReport,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    fault_counters,
)
from repro.faults.plan import FAULT_SSR, FAULT_TIMEOUT


def test_retry_policy_exponential_backoff():
    policy = RetryPolicy(max_retries=3, backoff_us=100.0,
                         backoff_multiplier=2.0)
    assert policy.backoff_for(0) == 100.0
    assert policy.backoff_for(1) == 200.0
    assert policy.backoff_for(2) == 400.0


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_us=-5.0)


def test_no_retry_policy():
    assert NO_RETRY.max_retries == 0


def test_fault_counters_reads_stats():
    from repro.android.fastrpc import FastRpcStats

    stats = FastRpcStats(timeouts=2, ssr_events=1, session_deaths=3,
                         thermal_events=4)
    assert fault_counters(stats) == {
        "timeout": 2, "ssr": 1, "session_death": 3, "thermal": 4,
    }


def test_record_invoke_stores_counter_delta_only():
    report = DegradationReport()
    before = {"timeout": 1, "ssr": 0, "session_death": 0, "thermal": 2}
    after = {"timeout": 3, "ssr": 0, "session_death": 1, "thermal": 2}
    entry = report.record_invoke(0, before, after, retries=2)
    assert entry.faults == {"timeout": 2, "session_death": 1}
    assert entry.degraded
    clean = report.record_invoke(1, after, after)
    assert clean.faults == {}
    assert not clean.degraded


def test_record_invoke_tolerates_missing_before_keys():
    # The channel may not exist at snapshot time (lazy creation): the
    # "before" snapshot is then empty and every "after" count is new.
    report = DegradationReport()
    entry = report.record_invoke(0, {}, {"timeout": 1, "ssr": 0,
                                         "session_death": 0, "thermal": 0})
    assert entry.faults == {"timeout": 1}


def test_totals_roll_up_across_invokes():
    report = DegradationReport()
    zero = {"timeout": 0, "ssr": 0, "session_death": 0, "thermal": 0}
    report.record_invoke(0, zero, {**zero, "timeout": 1}, retries=1)
    report.record_invoke(1, zero, zero)
    report.record_invoke(2, zero, {**zero, "ssr": 1}, retries=1,
                         fallbacks=1, fallback_us=250.0)
    assert report.faults_by_kind == {"timeout": 1, "ssr": 1}
    assert report.total_retries == 2
    assert report.total_fallbacks == 1
    assert report.fallback_us == 250.0
    assert report.degraded_invokes == 2
    summary = report.summary()
    assert summary["faults"] == {"timeout": 1, "ssr": 1}
    assert summary["invokes"] == 3
    assert summary["compile_fallback"] is False


def test_accounts_for_matches_injector_exactly():
    plan = FaultPlan(specs=(
        FaultSpec(FAULT_TIMEOUT, at_call=0),
        FaultSpec(FAULT_SSR, at_call=1),
    ))
    injector = FaultInjector(plan)
    injector.draw(0.0)
    injector.draw(1.0)
    report = DegradationReport()
    zero = {"timeout": 0, "ssr": 0, "session_death": 0, "thermal": 0}
    report.record_invoke(0, zero, {**zero, "timeout": 1})
    assert not report.accounts_for(injector)  # ssr still unaccounted
    report.record_invoke(1, zero, {**zero, "ssr": 1})
    assert report.accounts_for(injector)
