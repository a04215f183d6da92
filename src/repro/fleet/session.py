"""One fleet session: a concrete, serializable simulation unit.

A :class:`SessionSpec` is the fully-resolved form of one sampled device
— everything :func:`simulate_session` needs, as plain JSON-able values,
so it can cross a process boundary to a worker and serve as the content
hash for the on-disk result cache. A :class:`SessionResult` carries the
per-iteration stage latencies back, equally JSON-able, so cached and
freshly-simulated sessions are indistinguishable bit for bit.
"""

import hashlib
import json
from dataclasses import asdict, dataclass

#: Stage fields copied between PipelineRun and the serialized form.
STAGE_FIELDS = ("capture_us", "pre_us", "inference_us", "post_us", "other_us")


@dataclass(frozen=True)
class SessionSpec:
    """Everything that determines one session's measurements."""

    session_id: int
    soc: str
    model_key: str
    dtype: str
    context: str
    target: str
    runs: int
    seed: int
    ambient_celsius: float
    #: ``None`` or ``(count, target)`` of background inference jobs.
    background: tuple
    #: Per-call FastRPC fault probability (chaos experiments); 0 = off.
    fault_rate: float = 0.0

    def to_config(self):
        """The equivalent :class:`~repro.apps.harness.PipelineConfig`."""
        from repro.apps import PipelineConfig

        return PipelineConfig(
            model_key=self.model_key,
            dtype=self.dtype,
            context=self.context,
            target=self.target,
            runs=self.runs,
            soc=self.soc,
            seed=self.seed,
            ambient_celsius=self.ambient_celsius,
            background=self.background,
            fault_rate=self.fault_rate,
        )

    def to_dict(self):
        payload = asdict(self)
        if not payload["fault_rate"]:
            # Omit the zero default so fault-free specs hash — and hence
            # cache — exactly as they did before faults existed.
            del payload["fault_rate"]
        return payload

    @classmethod
    def from_dict(cls, payload):
        cleaned = dict(payload)
        if cleaned.get("background") is not None:
            cleaned["background"] = tuple(cleaned["background"])
        return cls(**cleaned)

    def digest(self):
        """Content hash of the spec — the result-cache key.

        Canonical JSON (sorted keys) so the digest is stable across
        Python versions and dict insertion orders.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class SessionResult:
    """Per-iteration stage latencies of one simulated session.

    A *failed* session — one whose simulation raised instead of
    completing (e.g. an un-recovered injected fault on a vendor
    runtime) — carries a structured ``error`` dict and an empty ``runs``
    list; aggregation skips it, the cache never stores it.
    """

    spec: SessionSpec
    #: One dict per iteration, keys :data:`STAGE_FIELDS`, simulated µs.
    runs: list
    from_cache: bool = False
    #: Graceful-degradation summary (see
    #: :meth:`repro.faults.DegradationReport.summary`), or ``None`` when
    #: the session saw no faults.
    degradation: dict = None
    #: ``{"type", "message", "attempts"}`` when the session failed.
    error: dict = None

    @property
    def ok(self):
        return self.error is None

    @property
    def cold_run(self):
        """The first (cold-start) iteration."""
        return self.runs[0]

    @property
    def steady_runs(self):
        """Iterations after the cold start."""
        return self.runs[1:]

    @staticmethod
    def total_us(run):
        return sum(run[fieldname] for fieldname in STAGE_FIELDS)

    @staticmethod
    def tax_us(run):
        return SessionResult.total_us(run) - run["inference_us"]

    def to_dict(self):
        payload = {"spec": self.spec.to_dict(), "runs": self.runs}
        if self.degradation is not None:
            payload["degradation"] = self.degradation
        if self.error is not None:
            payload["error"] = self.error
        return payload

    @classmethod
    def from_dict(cls, payload, from_cache=False):
        return cls(
            spec=SessionSpec.from_dict(payload["spec"]),
            runs=[dict(run) for run in payload["runs"]],
            from_cache=from_cache,
            degradation=payload.get("degradation"),
            error=payload.get("error"),
        )


def session_payload_digest(payload):
    """sha256 content hash of a session-result payload.

    Covers the result content (spec, runs, degradation) and excludes
    bookkeeping (``from_cache``, error attempts), so a cached payload
    and a fresh re-simulation of the same spec hash identically —
    JSON round-trips floats exactly. The fleet runner's cache
    verification (``REPRO_SANITIZE=1`` / ``verify_cache=True``)
    compares these digests to prove a cache hit could not have changed
    fleet percentiles.
    """
    canonical = {
        key: payload[key]
        for key in ("spec", "runs", "degradation")
        if payload.get(key) is not None
    }
    encoded = json.dumps(canonical, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def simulate_session(spec):
    """Simulate one session end to end; returns a :class:`SessionResult`.

    Pure function of the spec: same spec, same result, on any worker.
    Raises whatever the simulation raises — an un-recovered injected
    fault propagates to the caller; :func:`simulate_session_payload`
    is the exception-capturing form the fleet runner uses. The device
    is freed once its records are read, or when the simulation raises.
    """
    from repro.apps.harness import simulate_pipeline

    with simulate_pipeline(spec.to_config()) as (records, packaging):
        runs = [
            {fieldname: getattr(run, fieldname) for fieldname in STAGE_FIELDS}
            for run in records
        ]
        degradation = None
        report = getattr(packaging.session, "degradation", None)
        if report is not None:
            summary = report.summary()
            if (summary["faults"] or summary["retries"]
                    or summary["fallbacks"] or summary["compile_fallback"]):
                degradation = summary
    return SessionResult(spec=spec, runs=runs, degradation=degradation)


def simulate_session_payload(payload):
    """Dict-in/dict-out wrapper of :func:`simulate_session`.

    Top-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    pickle it by reference for worker processes. Never raises: a failed
    simulation comes back as a structured error payload, so one dying
    session cannot take the whole fleet down with it.
    """
    spec = SessionSpec.from_dict(payload)
    try:
        result = simulate_session(spec)
    except Exception as exc:  # noqa: BLE001 - fleet boundary
        return {
            "spec": spec.to_dict(),
            "runs": [],
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
    return result.to_dict()
