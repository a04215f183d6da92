"""Fleet execution: deterministic sharding over a supervised pool.

The parent expands the population serially (cheap, deterministic), then
farms cache-miss sessions out to a
:class:`~repro.fleet.supervisor.Supervisor`-driven worker pool. Each
session is an independent simulation with its own SeedSequence-derived
root seed, so sharding is trivially safe: results are assembled back in
session-id order and are bit-identical whatever the worker count,
completion order, or crash/kill/timeout interleaving. Cache hits never
re-enter a worker; successful payloads stream into the cache (and the
optional run journal) the moment they complete, so an interrupted run
keeps its finished work.
"""

import os
from dataclasses import dataclass, field

from repro.fleet.cache import CacheDigestError, ResultCache
from repro.fleet.population import expand_population, paper_population
from repro.fleet.session import (
    SessionResult,
    session_payload_digest,
    simulate_session_payload,
)
from repro.fleet.supervisor import RunJournal, Supervisor, run_key_for


@dataclass
class FleetResult:
    """Everything a fleet run produced, in session-id order.

    The fleet is allowed to be *partial*: sessions whose simulation
    raised (e.g. an un-recovered injected fault killing a vendor-runtime
    session) appear as :class:`SessionResult`\\ s carrying a structured
    ``error`` instead of runs — as do sessions the supervisor
    quarantined after repeated worker crashes. ``ok_results`` /
    ``failures`` split them.
    """

    seed: int
    workers: int
    results: list = field(default_factory=list)
    #: Sessions actually simulated this run (cache + journal misses).
    simulated: int = 0
    #: Sessions served from the on-disk cache.
    cache_hits: int = 0
    #: Sessions resumed from an interrupted run's journal.
    journal_hits: int = 0
    #: Supervision ledger (crashes survived, respawns, quarantines) —
    #: scheduling facts only; never payload content.
    supervision: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def ok_results(self):
        """Sessions that completed (possibly degraded)."""
        return [result for result in self.results if result.ok]

    @property
    def failures(self):
        """Sessions that died with a structured error."""
        return [result for result in self.results if not result.ok]

    @property
    def failure_rate(self):
        """Fraction of sessions that ended in a structured error."""
        if not self.results:
            return 0.0
        return len(self.failures) / len(self.results)


def run_fleet(population=None, sessions=64, workers=1, seed=0,
              cache_dir=None, runs=None, fault_rate=None,
              session_retries=1, verify_cache=None, journal=None,
              session_timeout_s=None, backoff_base_s=0.05, on_session=None):
    """Simulate a device population; returns a :class:`FleetResult`.

    Parameters
    ----------
    population:
        A :class:`~repro.fleet.population.DevicePopulation`; defaults to
        :func:`~repro.fleet.population.paper_population`.
    sessions:
        Number of per-device sessions to expand and simulate.
    workers:
        Process-pool size; ``<= 1`` runs in-process (bit-identical
        results either way).
    seed:
        Root seed for both axis sampling and per-session streams.
    cache_dir:
        Optional directory for the content-hash result cache. Failed
        sessions are never cached: a later run with the fault plan
        changed (or the bug fixed) must re-simulate them. Successful
        payloads are written as they complete, so a crash mid-run keeps
        every finished session.
    runs:
        Override the population's per-session iteration count.
    fault_rate:
        Override the population's per-call FastRPC fault probability.
    session_retries:
        Extra attempts for a session whose simulation raised, before it
        is recorded as a structured error result. Deterministic injected
        faults fail identically on retry (and the error records how many
        attempts were burned); the bound exists for transient host-level
        failures in worker processes. Failed sessions requeue
        individually — one retrying session never blocks the rest.
    verify_cache:
        Sanitizer hook: re-simulate every cache hit and require its
        :func:`~repro.fleet.session.session_payload_digest` to match
        the cached payload's, so a stale or tampered entry can never
        silently change fleet percentiles
        (:class:`~repro.fleet.cache.CacheDigestError` otherwise).
        ``None`` defers to the ``REPRO_SANITIZE`` environment variable.
    journal:
        Optional path to a :class:`~repro.fleet.supervisor.RunJournal`
        file. Finished sessions (including structured failures) are
        appended as they complete; re-running the same fleet against
        the same journal resumes instead of re-simulating.
    session_timeout_s:
        Per-session wall-clock deadline enforced by the supervisor when
        ``workers > 1``; a hung worker is killed and the session
        requeued with capped exponential backoff. A session that loses
        the supervisor's ``max_crashes`` workers (crashes + deadline
        kills) is quarantined as a structured error.
    backoff_base_s:
        Supervisor re-submit backoff after a strike, doubling per
        strike up to the supervisor's ``backoff_cap_s``.
    on_session:
        Progress callback ``(spec, payload)`` fired as each pending
        session produces its final payload (completion order — never
        let it shape results).
    """
    if population is None:
        population = paper_population()
    if runs is not None:
        population = population.with_runs(runs)
    if fault_rate is not None:
        population = population.with_fault_rate(fault_rate)
    if session_retries < 0:
        raise ValueError(f"session_retries must be >= 0, got {session_retries}")
    if verify_cache is None:
        verify_cache = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
    specs = expand_population(population, sessions, seed=seed)
    cache = ResultCache(cache_dir) if cache_dir is not None else None

    by_id = {}
    pending = []
    for spec in specs:
        payload = cache.get(spec.digest()) if cache is not None else None
        if payload is not None and verify_cache:
            fresh = simulate_session_payload(spec.to_dict())
            if session_payload_digest(fresh) != session_payload_digest(
                payload
            ):
                raise CacheDigestError(
                    f"cached result for session {spec.session_id} (key "
                    f"{spec.digest()[:12]}...) does not match a fresh "
                    "simulation; evict the entry or fix the determinism "
                    "regression"
                )
        if payload is not None:
            by_id[spec.session_id] = SessionResult.from_dict(
                payload, from_cache=True
            )
        else:
            pending.append(spec)

    journal_hits = 0
    run_journal = None
    if journal is not None:
        run_journal = RunJournal(
            journal, run_key_for(specs, session_retries=session_retries)
        )
        resumed = []
        for spec in pending:
            payload = run_journal.recorded.get(spec.digest())
            if payload is not None:
                by_id[spec.session_id] = SessionResult.from_dict(payload)
                journal_hits += 1
            else:
                resumed.append(spec)
        pending = resumed

    spec_by_id = {spec.session_id: spec for spec in pending}
    supervisor = Supervisor(
        workers=workers,
        session_retries=session_retries,
        session_timeout_s=session_timeout_s,
        backoff_base_s=backoff_base_s,
    )

    def _on_result(session_id, payload):
        # Streamed per completed session: a crash one session later
        # loses nothing that already finished.
        spec = spec_by_id[session_id]
        if "error" not in payload and cache is not None:
            cache.put(spec.digest(), payload)
        if run_journal is not None:
            run_journal.record(spec.digest(), payload)
        if on_session is not None:
            on_session(spec, payload)

    try:
        payload_by_id = supervisor.run(
            [(spec.session_id, spec.to_dict()) for spec in pending],
            on_result=_on_result,
        )
    finally:
        if run_journal is not None:
            run_journal.close()

    for spec in pending:
        by_id[spec.session_id] = SessionResult.from_dict(
            payload_by_id[spec.session_id]
        )

    return FleetResult(
        seed=seed,
        workers=workers,
        results=[by_id[spec.session_id] for spec in specs],
        simulated=len(pending),
        cache_hits=len(specs) - len(pending) - journal_hits,
        journal_hits=journal_hits,
        supervision=supervisor.stats.to_dict(),
    )
