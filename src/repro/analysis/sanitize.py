"""Dual-run replay digests: the driver above the runtime sanitizer.

The linter (:mod:`repro.analysis.lint`) catches hazard *patterns*; the
runtime sanitizer (:mod:`repro.sim.sanitizer` — invariant hooks wired
into the engine's run loop) catches hazard *behaviour*. This module is
the analysis-side driver over those hooks: it force-sanitizes a scope,
collects every simulator's popped-event stream, and diffs two replays.

The **dual-run digest** (:func:`dual_run`) replays a whole scenario
twice in-process, hashing every simulator's popped-event stream
``(time, priority, sequence, label)`` with sha256, and — when the
digests differ — pinpoints the first divergent event, flagging whether
it sits inside a tie group (an insertion-order nondeterminism) or not.
"""

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass

from repro.sim import sanitizer as _runtime


class DigestCollector:
    """Gathers the sanitizers of every simulator created in a scope.

    Simulators register in creation order, which is deterministic for a
    deterministic scenario — so two collectors from two replays of the
    same scenario can be diffed stream by stream.
    """

    def __init__(self):
        self.sanitizers = []

    def register(self, sanitizer):
        self.sanitizers.append(sanitizer)

    def combined_digest(self):
        """sha256 over every registered stream's digest, in order."""
        digest = hashlib.sha256()
        for sanitizer in self.sanitizers:
            digest.update(sanitizer.stream.digest().encode("ascii"))
        return digest.hexdigest()

    def event_count(self):
        return sum(len(s.stream.records) for s in self.sanitizers)

    def tie_count(self):
        return sum(len(s.ties) for s in self.sanitizers)

    def first_divergence(self, other):
        """First event where this replay and ``other`` disagree.

        Returns ``None`` when identical, else a dict with the stream
        index, event index, both records (``None`` past a stream's
        end), and ``"tie": True`` when both runs popped an event at the
        same ``(time, priority)`` — i.e. only the insertion-order
        tiebreak differed, the signature of hash/address
        nondeterminism.
        """
        streams = max(len(self.sanitizers), len(other.sanitizers))
        for stream_index in range(streams):
            if stream_index >= len(self.sanitizers) or stream_index >= len(
                other.sanitizers
            ):
                return {
                    "stream": stream_index,
                    "index": 0,
                    "left": None,
                    "right": None,
                    "tie": False,
                    "reason": "replays created a different number of "
                    "simulators",
                }
            left = self.sanitizers[stream_index].stream.records
            right = other.sanitizers[stream_index].stream.records
            for index in range(max(len(left), len(right))):
                record_a = left[index] if index < len(left) else None
                record_b = right[index] if index < len(right) else None
                if record_a != record_b:
                    tie = (
                        record_a is not None
                        and record_b is not None
                        and record_a.time == record_b.time
                        and record_a.priority == record_b.priority
                    )
                    return {
                        "stream": stream_index,
                        "index": index,
                        "left": record_a,
                        "right": record_b,
                        "tie": tie,
                    }
        return None


@contextmanager
def collecting():
    """Force-sanitize every simulator created in the scope and collect.

    Yields the :class:`DigestCollector` the scope's sanitizers register
    with. Nested scopes restore the previous collector on exit.
    """
    from repro.sim import set_sanitize_default

    collector = DigestCollector()
    previous = _runtime._ACTIVE["collector"]
    _runtime._ACTIVE["collector"] = collector
    previous_default = set_sanitize_default(True)
    try:
        yield collector
    finally:
        _runtime._ACTIVE["collector"] = previous
        set_sanitize_default(previous_default)


@dataclass(frozen=True)
class DualRunReport:
    """The outcome of replaying one scenario twice in-process."""

    digest_a: str
    digest_b: str
    events: int
    ties: int
    divergence: dict

    @property
    def identical(self):
        return self.divergence is None and self.digest_a == self.digest_b

    def render(self):
        lines = [
            f"run A digest: {self.digest_a}",
            f"run B digest: {self.digest_b}",
            f"events: {self.events}  tie groups: {self.ties}",
        ]
        if self.identical:
            lines.append("replay: IDENTICAL")
        else:
            lines.append("replay: DIVERGED")
            divergence = self.divergence or {}
            left = divergence.get("left")
            right = divergence.get("right")
            lines.append(
                f"first divergence: simulator #{divergence.get('stream')} "
                f"event #{divergence.get('index')}"
            )
            lines.append(
                f"  run A: {left.render() if left else '(stream ended)'}"
            )
            lines.append(
                f"  run B: {right.render() if right else '(stream ended)'}"
            )
            if divergence.get("tie"):
                lines.append(
                    "  equal (time, priority): order differs only by "
                    "schedule insertion — an unordered-iteration or "
                    "address-derived tiebreak"
                )
            if divergence.get("reason"):
                lines.append(f"  {divergence['reason']}")
        return "\n".join(lines)

    def to_json(self):
        """Machine-readable payload (the ``--format=json`` body)."""
        divergence = None
        if self.divergence is not None:
            divergence = dict(self.divergence)
            for side in ("left", "right"):
                record = divergence.get(side)
                if record is not None:
                    divergence[side] = {
                        "time": record.time,
                        "priority": record.priority,
                        "sequence": record.sequence,
                        "label": record.label,
                    }
        return {
            "identical": self.identical,
            "digest_a": self.digest_a,
            "digest_b": self.digest_b,
            "events": self.events,
            "ties": self.ties,
            "divergence": divergence,
        }


def dual_run(scenario):
    """Replay ``scenario()`` twice with sanitizers on; diff the digests.

    Every simulator created by the callable is instrumented; at the end
    of each replay its invariants are audited. Returns a
    :class:`DualRunReport` whose ``divergence`` names the first event
    where the two replays disagree (``None`` when bit-identical).
    """
    with collecting() as first:
        scenario()
    for sanitizer in first.sanitizers:
        sanitizer.audit()
    with collecting() as second:
        scenario()
    for sanitizer in second.sanitizers:
        sanitizer.audit()
    return DualRunReport(
        digest_a=first.combined_digest(),
        digest_b=second.combined_digest(),
        events=first.event_count(),
        ties=first.tie_count(),
        divergence=first.first_divergence(second),
    )
