"""Open-loop arrival processes: the traffic the service cannot pace.

A closed-loop load generator (the MLPerf single-stream scenario) waits
for each response before issuing the next query, so an overloaded
system quietly slows the *offered* load down and hides its own
saturation. An open-loop process issues requests on a schedule the
system under test cannot influence — the "millions of users" regime —
which is what makes overload, queueing delay, and goodput collapse
observable at all.

Both processes here are pure functions of ``(parameters, seed)``: each
call derives a fresh named stream from
:class:`~repro.sim.rng.RngStreams`, so the same seed replays the
request timeline bit-identically, run after run, worker after worker.
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.sim import RngStreams, units

#: Stream name the arrival draws come from (one stream per process
#: instance; fresh per ``times_us`` call so replays are identical).
#: Frozen at its historical value: the name seeds the derived stream,
#: so changing it would move every request timeline ever exported.
_STREAM = "service.arrivals"

POISSON = "poisson"
DIURNAL = "diurnal"

ARRIVAL_KINDS = (POISSON, DIURNAL)


@dataclass(frozen=True)
class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate_rps`` requests/second."""

    rate_rps: float
    seed: int = 0

    def __post_init__(self):
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be > 0, got {self.rate_rps}")

    @property
    def mean_gap_us(self):
        """Mean inter-arrival gap in simulator microseconds."""
        return units.seconds(1.0 / self.rate_rps)

    def times_us(self, duration_us):
        """Every arrival in ``[0, duration_us)``, as a tuple of microseconds.

        Same parameters and seed — same timeline, always.
        """
        _check_window(duration_us)
        rng = RngStreams(self.seed).stream(_STREAM)
        mean_gap_us = self.mean_gap_us
        # Gaps are drawn in bulk, a window's expected count at a time,
        # and summed left to right with the running total carried into
        # each draw: every time is the same float the one-draw-per-gap
        # loop gave, since the generator fills an array with the same
        # per-element routine as a scalar call. Draws past the window
        # are discarded.
        size = int(duration_us / mean_gap_us) + 1
        times = []
        now_us = 0.0
        while True:
            gaps = rng.exponential(mean_gap_us, size)
            gaps[0] += now_us
            arrivals = np.cumsum(gaps)
            inside = int(np.searchsorted(arrivals, duration_us))
            times.extend(arrivals[:inside].tolist())
            if inside < size:
                return tuple(times)
            now_us = float(arrivals[-1])


@dataclass(frozen=True)
class DiurnalArrivals:
    """Sinusoidally-modulated Poisson arrivals (a compressed "day".)

    The instantaneous rate is ``rate_rps * (1 + amplitude *
    sin(2 pi t / period))`` — the mean stays ``rate_rps`` while the
    peak hits ``rate_rps * (1 + amplitude)``, so a service provisioned
    for the mean sees periodic overload. Sampled by thinning a
    homogeneous process at the peak rate: every candidate consumes
    exactly two draws (gap + accept), so the timeline is independent of
    how many candidates end up accepted.
    """

    rate_rps: float
    amplitude: float = 0.6
    period_s: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be > 0, got {self.rate_rps}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )
        if self.period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {self.period_s}")

    def times_us(self, duration_us):
        """Every arrival in ``[0, duration_us)``, as a tuple of microseconds.

        Same contract as :meth:`PoissonArrivals.times_us`.
        """
        _check_window(duration_us)
        rng = RngStreams(self.seed).stream(_STREAM)
        period_us = units.seconds(self.period_s)
        peak_rate_rps = self.rate_rps * (1.0 + self.amplitude)
        peak_gap_us = units.seconds(1.0 / peak_rate_rps)
        times = []
        now_us = 0.0
        while True:
            now_us += rng.exponential(peak_gap_us)
            accept = rng.random()
            if now_us >= duration_us:
                return tuple(times)
            phase = math.sin(2.0 * math.pi * (now_us / period_us))
            rate_rps = self.rate_rps * (1.0 + self.amplitude * phase)
            if accept < rate_rps / peak_rate_rps:
                times.append(now_us)


def _check_window(duration_us):
    if duration_us <= 0:
        raise ValueError(f"duration_us must be > 0, got {duration_us}")


def make_arrivals(kind, rate_rps, seed=0, amplitude=0.6, period_s=1.0):
    """Factory mapping a config string to an arrival process."""
    if kind == POISSON:
        return PoissonArrivals(rate_rps=rate_rps, seed=seed)
    if kind == DIURNAL:
        return DiurnalArrivals(
            rate_rps=rate_rps, amplitude=amplitude, period_s=period_s,
            seed=seed,
        )
    raise ValueError(
        f"unknown arrival kind {kind!r}; known: {ARRIVAL_KINDS}"
    )
