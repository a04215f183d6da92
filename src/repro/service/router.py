"""Routing and backend execution on the discrete-event engine.

A :class:`Backend` pairs one calibrated
:class:`~repro.service.backends.BackendProfile` with a
:class:`~repro.service.batcher.DynamicBatcher` and a serving loop that
forms and serves batches, written as event callbacks rather than a
generator process (one callback frame per event instead of a
``Process`` resume and a generator frame; the events are the same).
The :class:`Router` spreads admitted requests across the pool with
deterministic join-shortest-queue (ties break toward the lowest pool
index, so identical runs route identically).

The router's ``depths`` list, one entry per backend in pool order, is
the only copy of each backend's depth (requests queued in its batcher
or in the batch it is serving). It and the pool's ``outstanding``
total are plain counts, changed together by :meth:`Backend._count` at
the only three points where a request enters or leaves a backend: +1
when it is enqueued, -n when a batch of n completes (before the first
completion callback) and -n when a batch of n faults (before its
requests are redispatched). Fault-free JSQ is then
``depths.index(min(depths))``. Every change is exported as an
observability counter sample (``service:backend<N>:depth`` and
``service:depth``) whenever the service simulator records a trace, so
backpressure dynamics are visible in the same Perfetto timeline as
everything else.

Backends can also *fail*: given a per-backend
:class:`~repro.faults.FaultInjector`, each batch draws from the fault
plan, and a faulted batch burns its full service time and then
completes nothing — the requests go back to the router for redispatch,
the backend's :class:`~repro.service.health.HealthMonitor` breaker
records the failure (ejecting the backend from routing once it trips),
and an SSR fault additionally costs the backend a reboot window.
"""

from repro.faults import FAULT_SSR
from repro.sim.events import Event, Timeout
from repro.sim.probes import instant
from repro.service.request import OUTCOME_FAILED, OUTCOME_OK


class Backend:
    """One pool member: a batcher plus a serving loop.

    The loop is a callback state machine, like the kernel's core loops.
    Semantically it is the generator::

        while True:
            while nothing is queued:
                wait for a wakeup
            while the batch is not ready:
                wait for the oldest request's deadline or a wakeup
            serve the batch (one timeout), then either complete it or
            fail it (plus an SSR reboot timeout)

    driven directly by event callbacks instead of through a
    :class:`~repro.sim.process.Process`. It creates the same events in
    the same order as that generator did: the ``service:backend<N>:start``
    bootstrap, each wait's deadline timeout, wakeup event and
    ``any_of`` (in that order), ``service:batch[<n>]`` and
    ``service:backend<N>:ssr_reboot`` timeouts. No wait reuses an
    event: an enqueue at the instant a deadline pops can still trigger
    that wait's wakeup, which then sits in the queue after the backend
    has moved on.
    """

    def __init__(self, sim, profile, batcher, on_complete,
                 injector=None, health=None, on_failed=None,
                 ssr_recovery_us=0.0):
        self.sim = sim
        self.profile = profile
        self.batcher = batcher
        self._on_complete = on_complete
        self.injector = injector
        self.health = health
        self._on_failed = on_failed
        self.ssr_recovery_us = ssr_recovery_us
        #: The :class:`Router` that holds this backend's depth and the
        #: pool count (set by it).
        self.router = None
        #: This backend's index in the router's pool (set by it).
        self.index = None
        self.served_batches = 0
        self.served_requests = 0
        self.failed_batches = 0
        self.failed_requests = 0
        #: Total simulated time this backend spent serving.
        self.busy_us = 0.0
        self._trace = sim.trace  # fixed at Simulator construction
        name = f"service:backend{profile.backend_id}"
        self._depth_track = name + ":depth"
        self._wakeup_name = name + ":wakeup"
        self._reboot_name = name + ":ssr_reboot"
        self._batch_names = tuple(
            f"service:batch[{size}]" for size in range(batcher.max_batch + 1)
        )
        #: The pending wait's wakeup (``None`` while serving).
        self._wakeup = None
        #: ``(batch, start_us, inference_us, service_us, fault)`` of the
        #: batch being served.
        self._serving = None
        sim.bootstrap(name, self._form)

    def _count(self, delta):
        """Move this backend's depth and the pool's count together."""
        router = self.router
        depths = router.depths
        depth = depths[self.index] + delta
        depths[self.index] = depth
        router.outstanding += delta
        if self._trace is not None:
            self._trace.count(self._depth_track, depth)
            self._trace.count("service:depth", router.outstanding)

    def enqueue(self, request):
        """Accept a routed request into the batching queue."""
        request.backend_id = self.profile.backend_id
        self.batcher.push(request, self.sim.now)
        self._count(1)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _form(self, _event=None):
        """Serve the next batch, or wait until one is ready.

        Parks on a wakeup while nothing is queued; otherwise waits for
        the oldest request's deadline or a wakeup, whichever pops first.
        After the last arrival the backend stays parked on a wakeup that
        never fires, and the run ends when the schedule drains.
        """
        sim = self.sim
        batcher = self.batcher
        if not batcher.pending:
            self._wakeup = Event(sim, name=self._wakeup_name)
            self._wakeup.callbacks.append(self._woken)
        elif not batcher.ready(sim.now):
            deadline = Timeout(sim, batcher.deadline_us() - sim.now)
            self._wakeup = Event(sim, name=self._wakeup_name)
            sim.any_of([deadline, self._wakeup]).callbacks.append(
                self._woken
            )
        else:
            self._serve(batcher.take())

    def _woken(self, _event):
        self._wakeup = None
        self._form()

    def _serve(self, batch):
        profile = self.profile
        flags = tuple(request.degraded for request in batch)
        inference_total_us = profile.batch_inference_us(flags)
        service_us = inference_total_us + profile.batch_tax_us(flags)
        now = self.sim.now
        fault = (
            self.injector.draw(now) if self.injector is not None else None
        )
        self._serving = (batch, now, inference_total_us, service_us, fault)
        Timeout(
            self.sim, service_us, name=self._batch_names[len(batch)]
        ).callbacks.append(self._served)

    def _served(self, _event):
        batch, start_us, inference_total_us, service_us, fault = (
            self._serving
        )
        self._serving = None
        if fault is not None:
            self._fail(batch, fault, service_us)
            return
        profile = self.profile
        done_us = self.sim.now
        inference_share_us = inference_total_us / len(batch)
        for request in batch:
            request.batch_size = len(batch)
            request.start_us = start_us
            request.done_us = done_us
            request.inference_us = inference_share_us
            request.tax_us = (
                profile.degraded_tax_us if request.degraded
                else profile.tax_us
            )
            # Everything that is not this request's own work — admission
            # wait, batch formation, and batch mates' shares — is
            # queueing/batching delay by definition, so the three
            # components sum exactly to the observed latency.
            request.queue_us = max(
                0.0,
                (done_us - request.arrival_us)
                - request.inference_us - request.tax_us,
            )
            request.outcome = OUTCOME_OK
        self.busy_us += service_us
        self.served_batches += 1
        self.served_requests += len(batch)
        self._count(-len(batch))
        if self.health is not None:
            self.health.record_success(profile.backend_id)
        for request in batch:
            self._on_complete(request)
        self._form()

    def _fail(self, batch, fault, service_us):
        """A faulted batch: the service time is burned, nothing finishes.

        The requests return to the router for redispatch, the breaker
        (if any) records the failure, and an SSR fault additionally
        costs this backend its subsystem-reboot window before it can
        form another batch.
        """
        self.busy_us += service_us
        self.failed_batches += 1
        self.failed_requests += len(batch)
        instant(
            self.sim, f"service:fault:{fault.kind}",
            {"backend": self.profile.backend_id, "batch": len(batch)},
        )
        if self.health is not None:
            self.health.record_failure(self.profile.backend_id)
        self._count(-len(batch))
        for request in batch:
            if self._on_failed is not None:
                self._on_failed(request)
        if fault.kind == FAULT_SSR and self.ssr_recovery_us > 0:
            Timeout(
                self.sim, self.ssr_recovery_us, name=self._reboot_name
            ).callbacks.append(self._form)
        else:
            self._form()

    def close(self):
        """Let go of the pool once the run has drained.

        Drops the parked wakeup (whose callback list holds this
        backend), the router back-reference and both callbacks. Each
        is part of a reference cycle that would otherwise keep the
        window's backends, router and completed requests alive until
        the cyclic collector ran. The backend cannot serve afterwards;
        :meth:`to_dict` still works.
        """
        self._wakeup = None
        self.router = None
        self._on_complete = None
        self._on_failed = None

    def to_dict(self):
        from repro.sim import units

        return {
            "profile": self.profile.to_dict(),
            "served_requests": self.served_requests,
            "served_batches": self.served_batches,
            "busy_ms": units.to_ms(self.busy_us),
        }


class Router:
    """Deterministic join-shortest-queue dispatch over the pool.

    With a :class:`~repro.service.health.HealthMonitor` attached, JSQ
    runs over the backends whose breaker admits traffic (open breakers
    are ejected; half-open ones take bounded probes); with a
    :class:`~repro.service.health.BrownoutController`, dispatched
    requests are degraded while the pool's outstanding count is inside
    a brownout episode. Both are deterministic functions of simulated
    state, so routing replays identically.
    """

    def __init__(self, sim, backends, health=None, brownout=None,
                 redispatch_limit=2, on_failed=None):
        if not backends:
            raise ValueError("router needs at least one backend")
        if redispatch_limit < 0:
            raise ValueError(
                f"redispatch_limit must be >= 0, got {redispatch_limit}"
            )
        self.sim = sim
        self.backends = list(backends)
        self.health = health
        self.brownout = brownout
        self.redispatch_limit = redispatch_limit
        self._on_failed = on_failed
        #: Successful re-routes after backend batch failures.
        self.redispatches = 0
        #: Requests that exhausted the redispatch budget.
        self.failed = 0
        #: Requests queued at or being served by each backend, in pool
        #: order: the only copy of each backend's depth.
        self.depths = [0] * len(self.backends)
        #: Requests queued at or being served by any backend.
        self.outstanding = 0
        for index, backend in enumerate(self.backends):
            backend.router = self
            backend.index = index

    def close(self):
        """End the run: drop the failure callback and close every backend.

        Call it once the schedule has drained and the result is read;
        the pool then frees itself by reference counting.
        """
        self._on_failed = None
        for backend in self.backends:
            backend.close()

    def _routable(self, exclude_id=None):
        """Routable backends' pool indices, pool order (never empty).

        Prefers healthy backends other than ``exclude_id`` (the one
        that just failed the request), then any healthy backend, then —
        when every breaker is open — the whole pool: routing must still
        land somewhere, and the half-open probes find recovery.
        """
        pool = range(len(self.backends))
        if self.health is not None:
            allowed = [
                index for index, backend in enumerate(self.backends)
                if self.health.allow(backend.profile.backend_id)
            ]
        else:
            allowed = pool
        if exclude_id is not None:
            kept = [
                index for index in allowed
                if self.backends[index].profile.backend_id != exclude_id
            ]
            if kept:
                return kept
        return allowed or pool

    def dispatch(self, request, exclude_id=None):
        """Route to the least-loaded routable backend; returns it."""
        depths = self.depths
        # Both picks keep the first of equal depths: ties go to pool
        # order.
        if self.health is None and exclude_id is None:
            index = depths.index(min(depths))
        else:
            index = min(self._routable(exclude_id), key=depths.__getitem__)
        target = self.backends[index]
        if self.health is not None:
            self.health.note_dispatch(target.profile.backend_id)
        if self.brownout is not None and self.brownout.update(
            self.outstanding, self.sim
        ):
            self.brownout.degrade(request)
        target.enqueue(request)
        return target

    def redispatch(self, request):
        """Re-route a request whose batch faulted, or fail it for good.

        Called by a backend for each member of a failed batch. The
        request is re-routed away from the backend that failed it while
        the budget lasts; past ``redispatch_limit`` it finishes as
        :data:`~repro.service.request.OUTCOME_FAILED`.
        """
        request.redispatches += 1
        if request.redispatches > self.redispatch_limit:
            request.outcome = OUTCOME_FAILED
            self.failed += 1
            instant(
                self.sim, "service:request_failed",
                {"request": request.request_id},
            )
            if self._on_failed is not None:
                self._on_failed(request)
            return None
        self.redispatches += 1
        return self.dispatch(request, exclude_id=request.backend_id)
