"""Supervised fleet execution: crash-safe, deadline-bound, resumable.

``run_fleet`` used to drive workers through ``pool.map``: one worker
killed by the OOM killer raised ``BrokenProcessPool`` and discarded
every in-flight session, a hung session stalled the run forever, and
nothing reached the result cache until every retry round had finished.
The :class:`Supervisor` replaces that with the recovery discipline the
simulated stack already practices (the Hexagon watchdog + SSR story of
docs/faults.md), applied to our own execution substrate:

* sessions are submitted **individually** and finish independently —
  there is no retry barrier, so one slow or repeatedly-failing session
  never blocks the others;
* a per-session **wall-clock deadline** turns a hung worker into a
  killed pool plus a requeued session (capped exponential backoff);
* ``BrokenProcessPool`` is survived by **respawning** the pool and
  requeueing only the sessions that were actually in flight;
* a session that repeatedly kills its worker is **quarantined**: after
  ``max_crashes`` strikes it becomes a structured
  :data:`QUARANTINE_ERROR` result instead of an infinite respawn loop;
* every final payload is streamed to an ``on_result`` callback the
  moment it exists, which is how the runner writes the cache and the
  :class:`RunJournal` incrementally — an interrupted run resumes
  without re-simulating finished work.

Supervision changes *scheduling only*. Session payloads are pure
functions of their specs, so the assembled results are bit-identical
whatever crash/kill/timeout interleaving occurred — the same contract
the dual-run replay digests already guard.

Crash attribution: when the pool breaks, the supervisor cannot know
which in-flight session killed the worker, so every one of them takes a
strike and becomes a *suspect*. Suspects re-run **isolated** (alone in
the pool), which makes every later strike exactly attributable: an
innocent session simply completes on its isolated re-run, while a
poisoned spec keeps crashing alone until it hits the quarantine bound.
A deadline kill, by contrast, names its culprit — only the expired
session is struck; other in-flight sessions are requeued strike-free.

This module runs on the *host* side of the process boundary: deadlines
and backoff are wall-clock by design (the simulated clock cannot
observe a wedged worker), which is why it sits on the determinism
linter's ``wallclock_allow`` list.
"""

import collections
import hashlib
import json
import pathlib
import time
from dataclasses import dataclass

from repro.fleet.session import simulate_session_payload

#: Structured-error type of a quarantined session (the spec crashed or
#: hung its worker ``max_crashes`` times).
QUARANTINE_ERROR = "SessionQuarantined"

#: Journal format version (bumped on incompatible line-schema changes).
JOURNAL_VERSION = 1

#: Longest the wait loop blocks before re-checking deadlines and
#: backoff eligibility (host seconds).
_TICK_S = 0.05


@dataclass
class SupervisorStats:
    """What supervision did during one run (host-side bookkeeping).

    These are *scheduling* facts — they never influence payload
    content, so two runs with different crash histories still produce
    bit-identical results.
    """

    #: Pool submissions, including re-submissions after a strike.
    submitted: int = 0
    #: Sessions that produced a final payload (ok, error, quarantine).
    completed: int = 0
    #: Session executions lost to a broken pool.
    crashes: int = 0
    #: Sessions killed at their wall-clock deadline.
    timeouts: int = 0
    #: Pools torn down and respawned.
    respawns: int = 0
    #: Sessions converted to structured quarantine errors.
    quarantined: int = 0
    #: Simulation-error retries (payloads carrying ``error``).
    sim_retries: int = 0

    def to_dict(self):
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "respawns": self.respawns,
            "quarantined": self.quarantined,
            "sim_retries": self.sim_retries,
        }


class _Entry:
    """One session's supervision state (host-side only)."""

    __slots__ = (
        "key", "payload", "strikes", "crashes", "timeouts",
        "sim_attempts", "not_before",
    )

    def __init__(self, key, payload):
        self.key = key
        self.payload = payload
        #: Attributable worker losses (crashes + deadline kills).
        self.strikes = 0
        self.crashes = 0
        self.timeouts = 0
        #: Task executions that returned a structured error payload.
        self.sim_attempts = 0
        #: Earliest host time this entry may be (re)submitted.
        self.not_before = 0.0

    @property
    def suspect(self):
        """Whether this entry must re-run isolated (alone in the pool)."""
        return self.strikes > 0


class _PoolHandle:
    """One ``ProcessPoolExecutor`` plus the ability to hard-kill it.

    ``kill`` SIGKILLs the worker processes before shutting the executor
    down — the only way to reclaim a worker wedged inside a hung
    session, since ``shutdown`` alone waits for running calls.
    """

    def __init__(self, workers):
        # Imported here, not at module top: the process pool pulls in
        # multiprocessing, socket and subprocess, which an in-process
        # (workers <= 1) run never needs.
        from concurrent.futures import ProcessPoolExecutor

        self.executor = ProcessPoolExecutor(max_workers=workers)

    def submit(self, task, payload):
        return self.executor.submit(task, payload)

    def kill(self):
        processes = getattr(self.executor, "_processes", None) or {}
        for process in list(processes.values()):
            process.kill()
        self.executor.shutdown(wait=True, cancel_futures=True)

    def close(self):
        self.executor.shutdown(wait=True, cancel_futures=True)


class Supervisor:
    """Drives session payloads through a supervised worker pool.

    Parameters
    ----------
    workers:
        Pool size; ``<= 1`` runs tasks in-process serially (identical
        results; host-crash supervision needs a pool to supervise).
    task:
        Picklable top-level callable ``payload dict -> result dict``.
        A result carrying an ``"error"`` key is a *simulation* failure
        (retried up to ``session_retries`` times, immediately — such
        failures are deterministic); a worker death or hang is a *host*
        failure (requeued with backoff, quarantined after
        ``max_crashes`` strikes).
    session_retries:
        Extra attempts for a task whose result carries ``"error"``.
    session_timeout_s:
        Per-session wall-clock deadline; ``None`` disables deadline
        kills (a hung worker then hangs the run, as before).
    max_crashes:
        Strikes (worker deaths + deadline kills) before a session is
        quarantined as a structured :data:`QUARANTINE_ERROR` result.
    backoff_base_s / backoff_cap_s:
        Capped exponential backoff between a strike and the re-submit:
        ``min(cap, base * 2**(strikes - 1))`` host seconds.
    """

    def __init__(self, workers, task=simulate_session_payload,
                 session_retries=1, session_timeout_s=None, max_crashes=3,
                 backoff_base_s=0.05, backoff_cap_s=2.0):
        if session_retries < 0:
            raise ValueError(
                f"session_retries must be >= 0, got {session_retries}"
            )
        if max_crashes < 1:
            raise ValueError(f"max_crashes must be >= 1, got {max_crashes}")
        if session_timeout_s is not None and session_timeout_s <= 0:
            raise ValueError(
                f"session_timeout_s must be > 0, got {session_timeout_s}"
            )
        self.workers = workers
        self.task = task
        self.session_retries = session_retries
        self.session_timeout_s = session_timeout_s
        self.max_crashes = max_crashes
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.stats = SupervisorStats()

    # -- entry points ---------------------------------------------------

    def run(self, items, on_result=None):
        """Run ``(key, payload)`` items to completion; returns a dict.

        The returned mapping has one final result payload per key.
        ``on_result(key, payload)`` fires as each session finishes —
        *final* results only, in completion order (which is
        nondeterministic under a pool; never let it shape results).
        """
        if self.workers <= 1 or not items:
            return self._run_serial(items, on_result)
        return self._run_pooled(items, on_result)

    # -- serial (in-process) --------------------------------------------

    def _run_serial(self, items, on_result):
        results = {}
        for key, payload in items:
            entry = _Entry(key, payload)
            while True:
                result = self.task(payload)
                if "error" in result:
                    entry.sim_attempts += 1
                    if entry.sim_attempts <= self.session_retries:
                        self.stats.sim_retries += 1
                        continue
                    result["error"]["attempts"] = entry.sim_attempts
                self._finish(results, on_result, entry, result)
                break
        return results

    # -- pooled ---------------------------------------------------------

    def _run_pooled(self, items, on_result):
        # Imported here, like the pool itself: concurrent.futures loads
        # logging and its executor base, which an in-process run and
        # every serve or report process never use.
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

        queue = collections.deque(
            _Entry(key, payload) for key, payload in items
        )
        results = {}
        inflight = {}
        pool = _PoolHandle(self.workers)
        try:
            while queue or inflight:
                self._submit_eligible(pool, queue, inflight)
                if not inflight:
                    self._sleep_until_eligible(queue)
                    continue
                done, _pending = wait(
                    set(inflight),
                    timeout=self._wait_timeout(inflight),
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    entry, _submitted = inflight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenExecutor:
                        broken = True
                        self._strike(results, on_result, queue, entry,
                                     crash=True)
                    except Exception as exc:  # noqa: BLE001 - task boundary
                        self._finish(
                            results, on_result, entry,
                            _error_payload(
                                entry, type(exc).__name__, str(exc)
                            ),
                        )
                    else:
                        self._absorb(results, on_result, queue, entry,
                                     payload)
                expired = self._expired(inflight)
                if broken or expired:
                    pool = self._recover(
                        pool, results, on_result, queue, inflight,
                        broken=broken, expired=expired,
                    )
        finally:
            pool.close()
        return results

    def _submit_eligible(self, pool, queue, inflight):
        """Top the pool up, clean sessions first, suspects isolated."""
        if any(entry.suspect for entry, _ in inflight.values()):
            return  # an isolated suspect owns the pool right now
        now = time.monotonic()
        while len(inflight) < self.workers:
            entry = self._pop_eligible(queue, now, suspects=False)
            if entry is None:
                break
            self._submit(pool, inflight, entry)
        if not inflight:
            entry = self._pop_eligible(queue, now, suspects=True)
            if entry is not None:
                self._submit(pool, inflight, entry)

    def _pop_eligible(self, queue, now, suspects):
        for index, entry in enumerate(queue):
            if entry.suspect is suspects and entry.not_before <= now:
                del queue[index]
                return entry
        return None

    def _submit(self, pool, inflight, entry):
        future = pool.submit(self.task, entry.payload)
        inflight[future] = (entry, time.monotonic())
        self.stats.submitted += 1

    def _sleep_until_eligible(self, queue):
        now = time.monotonic()
        earliest = min(entry.not_before for entry in queue)
        if earliest > now:
            time.sleep(min(earliest - now, self.backoff_cap_s))

    def _wait_timeout(self, inflight):
        if self.session_timeout_s is None:
            return _TICK_S
        now = time.monotonic()
        soonest = min(
            submitted + self.session_timeout_s
            for _entry, submitted in inflight.values()
        )
        return max(0.0, min(_TICK_S, soonest - now))

    def _expired(self, inflight):
        if self.session_timeout_s is None:
            return []
        now = time.monotonic()
        return [
            future
            for future, (_entry, submitted) in inflight.items()
            if now - submitted >= self.session_timeout_s
        ]

    def _recover(self, pool, results, on_result, queue, inflight,
                 broken, expired):
        """Kill + respawn the pool; requeue only what was in flight."""
        expired = set(expired)
        for future, (entry, _submitted) in list(inflight.items()):
            if future in expired:
                self._strike(results, on_result, queue, entry, crash=False)
            elif broken:
                # A shared crash: the culprit is unknown, so every
                # in-flight session takes a strike and re-runs isolated.
                self._strike(results, on_result, queue, entry, crash=True)
            else:
                # Innocent victim of a deadline kill: requeue free.
                queue.append(entry)
        inflight.clear()
        pool.kill()
        self.stats.respawns += 1
        return _PoolHandle(self.workers)

    def _strike(self, results, on_result, queue, entry, crash):
        entry.strikes += 1
        if crash:
            entry.crashes += 1
            self.stats.crashes += 1
        else:
            entry.timeouts += 1
            self.stats.timeouts += 1
        if entry.strikes >= self.max_crashes:
            self.stats.quarantined += 1
            self._finish(
                results, on_result, entry,
                _error_payload(
                    entry, QUARANTINE_ERROR,
                    (
                        f"session quarantined after {entry.strikes} "
                        f"strikes ({entry.crashes} worker crashes, "
                        f"{entry.timeouts} deadline kills); the spec "
                        "poisons its worker"
                    ),
                    attempts=entry.strikes,
                    crashes=entry.crashes,
                    timeouts=entry.timeouts,
                ),
            )
            return
        backoff = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2 ** (entry.strikes - 1)),
        )
        entry.not_before = time.monotonic() + backoff
        queue.append(entry)

    def _absorb(self, results, on_result, queue, entry, payload):
        """Classify a task result: final, or a simulation-error retry."""
        if "error" in payload:
            entry.sim_attempts += 1
            if entry.sim_attempts <= self.session_retries:
                self.stats.sim_retries += 1
                # Deterministic failure: requeue immediately, no strike,
                # no backoff, no barrier on the other sessions.
                queue.append(entry)
                return
            payload["error"]["attempts"] = entry.sim_attempts
        self._finish(results, on_result, entry, payload)

    def _finish(self, results, on_result, entry, payload):
        results[entry.key] = payload
        self.stats.completed += 1
        if on_result is not None:
            on_result(entry.key, payload)


def _error_payload(entry, error_type, message, **extra):
    """A session-result-shaped structured error for a failed entry."""
    error = {"type": error_type, "message": message}
    error.update(extra)
    return {"spec": dict(entry.payload), "runs": [], "error": error}


# -- run journal --------------------------------------------------------


def run_key_for(specs, session_retries=1):
    """Content hash identifying one fleet run's exact work list.

    Two invocations with the same population, sessions, seed, and
    retry bound produce the same key, so a journal written by an
    interrupted run is recognized — and one written for different work
    is discarded rather than trusted.
    """
    canonical = json.dumps(
        {
            "digests": [spec.digest() for spec in specs],
            "session_retries": session_retries,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RunJournal:
    """Append-only JSONL recovery log for one fleet run.

    Line 1 is a header binding the file to a :func:`run_key_for` key;
    every later line is one finished session:
    ``{"digest": <spec digest>, "payload": <final result payload>}``.
    Loading tolerates a torn final line (a crash mid-append) by
    truncating it away, and discards the whole file when the header's
    run key does not match — a journal never lies about which run it
    belongs to. Unlike the result cache, the journal also records
    *failed* sessions: within one run's retry policy their structured
    errors are final, so a resume re-simulates zero finished sessions.
    """

    def __init__(self, path, run_key):
        self.path = pathlib.Path(path)
        self.run_key = run_key
        self.recorded = {}
        self._handle = None
        self._open()

    def _open(self):
        good_end, lines = self._scan()
        header_ok = bool(lines) and (
            lines[0].get("journal") == JOURNAL_VERSION
            and lines[0].get("run_key") == self.run_key
        )
        if not header_ok:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w")
            self._write_line(
                {"journal": JOURNAL_VERSION, "run_key": self.run_key}
            )
            return
        for record in lines[1:]:
            self.recorded[record["digest"]] = record["payload"]
        with open(self.path, "r+b") as handle:
            handle.truncate(good_end)
        self._handle = open(self.path, "a")

    def _scan(self):
        """Parse whole lines; returns (byte offset after last good, lines)."""
        try:
            data = self.path.read_bytes()
        except (FileNotFoundError, OSError):
            return 0, []
        good_end = 0
        lines = []
        start = 0
        while True:
            newline = data.find(b"\n", start)
            if newline == -1:
                break
            try:
                lines.append(json.loads(data[start:newline]))
            except ValueError:
                break  # torn or corrupt line: everything after is void
            good_end = newline + 1
            start = newline + 1
        return good_end, lines

    def _write_line(self, record):
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def record(self, digest, payload):
        """Append one finished session (idempotent per digest)."""
        if digest in self.recorded:
            return
        self._write_line({"digest": digest, "payload": payload})
        self.recorded[digest] = payload

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
