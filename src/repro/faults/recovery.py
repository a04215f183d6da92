"""Graceful-degradation machinery: retry policies and fault accounting.

The paper's failure modes (Fig. 5 silent CPU fallback, Fig. 7 FastRPC
stalls, Fig. 11 thermal erosion) do not crash real phones — the stack
*degrades*: drivers retry, runtimes re-route work to the CPU, sessions
finish slower. This module holds the two pieces every recovering layer
shares: the deterministic :class:`RetryPolicy` a FastRPC channel backs
off with, and the :class:`DegradationReport` an inference session keeps
so the cost of faults, retries, and runtime fallbacks is attributable —
and auditable against the injector that caused them.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff."""

    max_retries: int = 2
    backoff_us: float = 500.0
    backoff_multiplier: float = 2.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_us < 0:
            raise ValueError(f"backoff_us must be >= 0, got {self.backoff_us}")

    def backoff_for(self, attempt):
        """Backoff before retry ``attempt`` (0-based), in simulated µs."""
        return self.backoff_us * self.backoff_multiplier ** attempt


#: No retries at all — vendor runtimes (SNPE) surface FastRPC errors
#: straight to the app, which is exactly how fleet sessions die.
NO_RETRY = RetryPolicy(max_retries=0)


def fault_counters(stats):
    """Per-kind fault counters of a :class:`FastRpcStats` as a dict."""
    return {
        "timeout": stats.timeouts,
        "ssr": stats.ssr_events,
        "session_death": stats.session_deaths,
        "thermal": stats.thermal_events,
    }


def _delta(after, before):
    return {
        kind: after[kind] - before.get(kind, 0)
        for kind in after
        if after[kind] - before.get(kind, 0)
    }


@dataclass
class InvokeDegradation:
    """What went wrong (and what it cost) during one invoke."""

    index: int
    #: Faults observed during this invoke, by kind.
    faults: dict = field(default_factory=dict)
    #: Channel-level retries spent recovering.
    retries: int = 0
    #: Partitions re-run on the CPU reference path after the DSP failed.
    fallbacks: int = 0
    #: Reference-kernel work added by those fallbacks, µs.
    fallback_us: float = 0.0

    @property
    def degraded(self):
        return bool(self.faults) or self.fallbacks > 0


class DegradationReport:
    """Per-session ledger of faults, retries, and runtime fallbacks.

    A session records one :class:`InvokeDegradation` per invoke (plus a
    pseudo-invoke with index ``-1`` for compile-time faults), so the
    report accounts for every injected fault:
    ``report.accounts_for(injector)`` is the acceptance check the chaos
    tests enforce.
    """

    def __init__(self):
        self.invokes = []
        #: The compile-time driver probe failed and the session fell
        #: back to reference kernels for its whole lifetime.
        self.compile_fallback = False

    def record_invoke(self, index, faults_before, faults_after,
                      retries=0, fallbacks=0, fallback_us=0.0):
        """Close the ledger entry for one invoke from counter snapshots."""
        entry = InvokeDegradation(
            index=index,
            faults=_delta(faults_after, faults_before),
            retries=retries,
            fallbacks=fallbacks,
            fallback_us=fallback_us,
        )
        self.invokes.append(entry)
        return entry

    # -- totals ----------------------------------------------------------

    @property
    def faults_by_kind(self):
        totals = {}
        for entry in self.invokes:
            for kind, count in entry.faults.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    @property
    def total_retries(self):
        return sum(entry.retries for entry in self.invokes)

    @property
    def total_fallbacks(self):
        return sum(entry.fallbacks for entry in self.invokes)

    @property
    def fallback_us(self):
        return sum(entry.fallback_us for entry in self.invokes)

    @property
    def degraded_invokes(self):
        return sum(1 for entry in self.invokes if entry.degraded)

    def accounts_for(self, injector):
        """True when the ledger matches the injector's counts exactly."""
        return self.faults_by_kind == injector.injected

    def summary(self):
        """JSON-able rollup, the form fleet session results carry."""
        return {
            "faults": self.faults_by_kind,
            "retries": self.total_retries,
            "fallbacks": self.total_fallbacks,
            "fallback_us": self.fallback_us,
            "degraded_invokes": self.degraded_invokes,
            "invokes": len(self.invokes),
            "compile_fallback": self.compile_fallback,
        }
