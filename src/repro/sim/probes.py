"""Span-context probes: one-line instrumentation for simulation code.

Simulation hot paths are generators; a ``with`` block inside a
generator body opens a span at the current simulated time, lets any
number of ``yield``\\ s advance the clock inside it, and closes the span
when the block exits (including via an exception, so failed FastRPC
calls still leave a closed span behind):

.. code-block:: python

    from repro.sim.probes import probe

    def invoke(self, ...):
        with probe(self.kernel, "fastrpc", "invoke") as span:
            if span is not None:
                span.meta["pid"] = self.process_id
            yield Work(...)          # time passes inside the span
            yield from self.do_rpc()

Probes resolve their :class:`~repro.sim.trace.TraceRecorder` from
whatever owner is at hand — a recorder, a ``Simulator``, a ``Kernel``,
or anything with a ``.sim`` — and compile to a shared no-op context
manager when tracing is disabled, so instrumented code pays only an
attribute lookup on untraced runs and never perturbs simulated time
(the *probe effect* the paper quantifies in §III-D is modelled
separately by :mod:`repro.core.probe`; these probes are free).

Disabled probes are *allocation-free* (asserted by
``tests/observability/test_probe_overhead.py``): span metadata travels
as an optional positional dict, never ``**kwargs`` — a ``**meta``
signature would allocate a fresh dict on every call even when tracing
is off. Call sites with per-call metadata enter the span first and
write ``span.meta`` only when a live span came back, as above; sites
whose metadata is fixed for the life of a session pass one prebuilt
dict (``begin`` copies it into the span, so spans never alias it).
"""


def _recorder(owner):
    """TraceRecorder for ``owner`` (recorder/Simulator/Kernel), or None.

    A Simulator or Kernel carries its recorder, or None when untraced,
    as ``.trace``, so an untraced probe makes one attribute lookup.
    """
    if owner is None:
        return None
    try:
        trace = owner.trace
    except AttributeError:
        pass
    else:
        if trace is None or hasattr(trace, "begin"):
            return trace
    if hasattr(owner, "begin"):  # already a TraceRecorder
        return owner
    sim = getattr(owner, "sim", None)
    if sim is not None:
        return sim.trace
    return None


class _NullProbe:
    """Shared do-nothing context manager for untraced runs."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL = _NullProbe()


class _Probe:
    """Context manager that brackets a span on a track."""

    __slots__ = ("_trace", "_track", "_label", "_meta", "span")

    def __init__(self, trace, track, label, meta):
        self._trace = trace
        self._track = track
        self._label = label
        self._meta = meta
        self.span = None

    def __enter__(self):
        meta = self._meta
        if meta is None:
            self.span = self._trace.begin(self._track, self._label)
        else:
            # Re-packed by begin's **meta, so the caller's dict (often a
            # per-session constant) is never aliased by the span.
            self.span = self._trace.begin(self._track, self._label, **meta)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.span.meta["error"] = exc_type.__name__
        self._trace.end(self.span)
        return False


def probe(owner, track, label, meta=None):
    """Context manager recording a span on ``track`` while it is open.

    ``owner`` may be a :class:`~repro.sim.trace.TraceRecorder`, a
    ``Simulator``, a ``Kernel``, or ``None``; when tracing is off a
    shared null context is returned, so call sites need no guard and
    the call allocates nothing. ``meta`` is an optional dict copied
    into the span; for metadata that varies per call, prefer entering
    the span and writing ``span.meta`` when the span is not None.
    """
    trace = _recorder(owner)
    if trace is None:
        return _NULL
    return _Probe(trace, track, label, meta)


def instant(owner, label, meta=None):
    """Record an instantaneous event (``ph: "i"`` in the export)."""
    trace = _recorder(owner)
    if trace is not None:
        if meta is None:
            trace.mark(label)
        else:
            trace.mark(label, **meta)


def counter(owner, name, value=1):
    """Record a counter sample (``ph: "C"`` in the export)."""
    trace = _recorder(owner)
    if trace is not None:
        trace.count(name, value)
