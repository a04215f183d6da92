"""Common framework abstractions."""

from dataclasses import dataclass

#: NNAPI execution preferences (the benchmarks default to
#: FAST_SINGLE_ANSWER, §III-B).
FAST_SINGLE_ANSWER = "fast_single_answer"
SUSTAINED_SPEED = "sustained_speed"
LOW_POWER = "low_power"

EXECUTION_PREFERENCES = (FAST_SINGLE_ANSWER, SUSTAINED_SPEED, LOW_POWER)


class UnsupportedModelError(Exception):
    """Raised when a framework/delegate cannot run a model at all."""


@dataclass
class Partition:
    """A contiguous run of ops assigned to one device."""

    device: str  # "cpu", "gpu", "dsp"
    ops: tuple
    index: int = 0

    @property
    def op_count(self):
        return len(self.ops)

    @property
    def flops(self):
        return sum(op.flops for op in self.ops)


@dataclass
class InferenceStats:
    """Accounting for one session across its lifetime."""

    init_us: float = 0.0
    invocations: int = 0


class InferenceSession:
    """Interface all runtimes implement.

    ``prepare()`` and ``invoke()`` are generators to ``yield from``
    inside a :class:`~repro.android.thread.SimThread` body. ``prepare``
    is the one-time model load/compile; ``invoke`` runs one inference
    and returns its wall duration in simulated microseconds.
    """

    stats: InferenceStats

    def prepare(self):
        raise NotImplementedError

    def invoke(self):
        raise NotImplementedError

    def describe_plan(self):
        """Human-readable device placement, for reports."""
        raise NotImplementedError
