"""Application processes.

An :class:`AppProcess` groups threads under one pid and — for real
Android apps (not command-line benchmarks) — runs an ART garbage
collector whose pauses stall the app's threads at random points, one of
the app-only variability sources behind the paper's Fig. 11. It owns
no FastRPC channel: each DSP runtime (TFLite's Hexagon delegate, NNAPI,
SNPE) opens its own.
"""

from repro.android import params
from repro.android.thread import Sleep, Work


class AppProcess:
    """One Linux process: a pid, its threads, optional ART runtime."""

    def __init__(self, kernel, name, managed_runtime=False):
        self.kernel = kernel
        self.name = name
        self.pid = kernel.allocate_pid()
        self.managed_runtime = managed_runtime
        self.threads = []
        self._gc_thread = None
        if managed_runtime:
            self._gc_thread = kernel.spawn(
                self._gc_body(), name=f"{name}:gc", nice=10, process=self
            )

    def spawn(self, body, name, **kwargs):
        thread = self.kernel.spawn(
            body, name=f"{self.name}:{name}", process=self, **kwargs
        )
        self.threads.append(thread)
        return thread

    def _gc_body(self):
        """Background + pause phases of the ART concurrent collector."""
        rng = self.kernel.sim.rng.stream(f"gc:{self.name}")
        while True:
            interval = rng.exponential(params.GC_INTERVAL_MEAN_US)
            yield Sleep(max(interval, 10_000.0))
            # Concurrent mark runs as low-priority CPU work; the brief
            # stop-the-world portion is modelled as extra work too since
            # it steals CPU from the app's hot path.
            pause = rng.exponential(params.GC_PAUSE_MEAN_US)
            yield Work(max(pause, 200.0), label="gc")
