"""Discrete-event simulation kernel.

A compact, deterministic, event-driven simulator in the style of simpy.
Every timed behaviour in the reproduction runs off :class:`Event`
objects popped from one schedule, in one of three forms:

* simulated threads (:class:`repro.android.SimThread`; app, framework,
  driver and camera code): generators the Android kernel drives through
  their ``Work``, ``Sleep`` and ``WaitFor`` requests;
* callback loops for the hot loops: the per-core scheduler and DVFS
  governor loops, and the service tier's arrival driver and backends;
* :class:`Process`, a generator that yields events, for low-rate loops
  (the thermal model, the trace sampler) and for tests.

Time is a float in **microseconds**; helpers in :mod:`repro.sim.units`
convert to and from milliseconds and seconds.
"""

from repro.sim.engine import (
    Simulator,
    sanitize_enabled,
    set_sanitize_default,
)
from repro.sim.events import Event, Timeout, AllOf, AnyOf
from repro.sim.process import Process
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngStreams
from repro.sim.sanitizer import Sanitizer, SanitizerError
from repro.sim.trace import Span, TraceRecorder
from repro.sim import units

__all__ = [
    "Simulator",
    "Sanitizer",
    "SanitizerError",
    "sanitize_enabled",
    "set_sanitize_default",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Resource",
    "Store",
    "RngStreams",
    "Span",
    "TraceRecorder",
    "units",
]
