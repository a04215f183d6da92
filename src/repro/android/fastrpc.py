"""FastRPC: the CPU <-> DSP offload channel (paper Fig. 7).

The Hexagon DSP is loosely coupled — it has its own memory subsystem and
no cache coherency with the CPU — so every invocation crosses these
boundaries:

    user (marshal args) -> kernel (ioctl, cache flush) -> AXI transfer
      -> DSP dispatch -> compute -> AXI transfer back
      -> kernel (invalidate, signal) -> user (unmarshal)

Session setup additionally maps the calling process onto the DSP (loader
+ memory map), a one-time multi-millisecond cost per process: the
dominant share of the cold-start penalty the paper amortizes in Fig. 8.
"""

from dataclasses import dataclass

from repro.android import params
from repro.android.thread import Sleep, WaitFor, Work
from repro.faults.plan import (
    DEFAULT_THERMAL_JUMP_C,
    FAULT_SESSION_DEATH,
    FAULT_SSR,
    FAULT_THERMAL,
    FAULT_TIMEOUT,
)
from repro.faults.recovery import RetryPolicy
from repro.sim.probes import instant, probe


@dataclass
class FastRpcStats:
    """Accounting of where FastRPC time went, per channel.

    ``calls`` counts *completed* invocations only; failed calls land in
    the fault counters (``timeouts``, ``session_deaths``, ``ssr_events``,
    ``stale_handles``) so traces and reports can distinguish a call that
    finished from one the driver failed.
    """

    calls: int = 0
    session_opens: int = 0
    session_open_us: float = 0.0
    marshal_us: float = 0.0
    kernel_us: float = 0.0
    cache_flush_us: float = 0.0
    transfer_us: float = 0.0
    signal_us: float = 0.0
    dsp_queue_us: float = 0.0
    dsp_compute_us: float = 0.0
    #: Calls failed with -ETIMEDOUT (an injected unresponsive DSP).
    timeouts: int = 0
    #: Calls failed because this channel's session was torn down.
    session_deaths: int = 0
    #: Calls failed by a DSP subsystem restart (all mappings dropped).
    ssr_events: int = 0
    #: Calls failed on a handle invalidated by someone else's SSR.
    stale_handles: int = 0
    #: Transient thermal emergencies injected on this channel.
    thermal_events: int = 0
    #: Retries issued by :meth:`FastRpcChannel.invoke_retrying`.
    retries: int = 0
    #: Off-CPU time spent in retry backoff.
    backoff_us: float = 0.0


class _StatsCommitLog:
    """Deferred :class:`FastRpcStats` updates, committed atomically.

    :meth:`FastRpcChannel.invoke` spans many yields; bumping the stats
    fields inline would let an interrupt at an interior yield (an
    exception arriving there, such as an injected driver error) leave
    the object torn between fields mid-call. With the stage times
    written inline, racecheck reports that as two
    ``interrupt-unsafe-update`` findings, one in :meth:`invoke` and one
    in :meth:`_fail_injected`. Stage times are appended here instead
    and land on the stats object in one step when the call settles, on
    *every* exit path. Entries replay in append order, so each field's
    float sum is the same left-fold it was under inline commits
    (bit-identical accounting).
    """

    __slots__ = ("_stats", "_entries")

    def __init__(self, stats):
        self._stats = stats
        self._entries = []

    def add(self, entry):
        """Queue one ``(field name, delta)`` update."""
        self._entries.append(entry)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        stats = self._stats
        for field, delta in self._entries:
            setattr(stats, field, getattr(stats, field) + delta)
        self._entries.clear()
        return False


class FastRpcTimeout(Exception):
    """The DSP did not pick the call up within the driver timeout.

    Real FastRPC invocations carry a driver-level timeout: a wedged DSP
    surfaces as ``-ETIMEDOUT`` to the caller, who decides whether to
    retry or fall back to the CPU. Only an injected ``timeout`` fault
    raises it here.
    """


class FastRpcSessionDeath(Exception):
    """The channel's DSP session died mid-call.

    Covers both a targeted teardown (the driver killed this process's
    handle) and a DSP subsystem restart (SSR), which drops *every*
    process mapping. Either way the caller must reopen the session —
    paying the multi-millisecond remap/reload cost again — before the
    channel is usable.
    """


class FastRpcChannel:
    """One process's RPC channel to the DSP.

    All public methods are generators intended for ``yield from`` inside
    a :class:`~repro.android.thread.SimThread` body.

    ``fault_injector`` (a :class:`~repro.faults.plan.FaultInjector`)
    deterministically fails calls for chaos experiments;
    ``retry_policy`` (a :class:`~repro.faults.recovery.RetryPolicy`)
    governs :meth:`invoke_retrying`.
    """

    def __init__(self, kernel, process_id, fault_injector=None,
                 retry_policy=None):
        self.kernel = kernel
        self.soc = kernel.soc
        self.dsp = kernel.soc.dsp
        self.process_id = process_id
        self.fault_injector = fault_injector
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.stats = FastRpcStats()
        self._session_open = False
        #: Static span metadata, built once — probes copy it into each
        #: span, and untraced runs never allocate a per-call dict.
        self._probe_meta = {"process": process_id}

    def open_session(self):
        """Map the process onto the DSP (idempotent)."""
        if self._session_open:
            return
        start = self.kernel.now
        with probe(self.kernel, "fastrpc", "open_session",
                   self._probe_meta):
            yield from self.kernel.syscall(label="fastrpc:open")
            if self.dsp.map_process(self.process_id):
                # Remote loader + SMMU mapping run on the DSP side; the
                # CPU thread blocks while holding nothing.
                yield Sleep(params.FASTRPC_SESSION_OPEN_US)
        # Re-checked after the yields: a second body racing into open
        # (or an SSR flipping the flag while we were suspended) must
        # not double-count the open on the entry check alone.
        if not self._session_open:
            self._session_open = True
            self.stats.session_opens += 1
        self.stats.session_open_us += self.kernel.now - start

    def invoke(self, input_bytes, output_bytes, dsp_compute_us, label="invoke"):
        """One remote invocation; returns total wall time spent.

        ``dsp_compute_us`` is the pure DSP execution time for the call;
        the channel adds all offload overheads around it.
        """
        sim = self.kernel.sim
        memory = self.soc.memory
        start = self.kernel.now
        if (
            self._session_open
            and self.process_id not in self.dsp.mapped_processes
        ):
            # The DSP restarted underneath us (another client's SSR):
            # the handle is stale and the driver fails the call at the
            # ioctl, before any DSP-side work.
            self._session_open = False
            yield from self.kernel.syscall(label=f"fastrpc:{label}:stale")
            self.stats.kernel_us += params.IOCTL_US
            self.stats.stale_handles += 1
            raise FastRpcSessionDeath(
                f"process {self.process_id} lost its DSP mapping "
                "(subsystem restarted)"
            )
        if not self._session_open:
            yield from self.open_session()
        # Stage accounting is deferred to this commit log and lands on
        # ``self.stats`` in one atomic step when the call settles (any
        # exit path) — see :class:`_StatsCommitLog`.
        pending = _StatsCommitLog(self.stats)
        fault = None
        if self.fault_injector is not None:
            fault = self.fault_injector.draw(self.kernel.now)
        if fault is not None and fault.kind == FAULT_THERMAL:
            # Transient thermal emergency: the die jumps and throttling
            # engages; the call itself proceeds, just slower from here.
            jump = (
                fault.magnitude
                if fault.magnitude is not None
                else DEFAULT_THERMAL_JUMP_C
            )
            thermal = self.soc.thermal
            thermal.temperature = min(
                thermal.full_load_celsius, thermal.temperature + jump
            )
            thermal._apply_throttle()
            pending.add(("thermal_events", 1))
            instant(sim, "fault:thermal",
                    {"process": self.process_id, "jump_c": jump})
            fault = None

        # The Fig. 7 call flow, each stage a nested span on the
        # "fastrpc" track (probes are no-ops when tracing is off).
        with pending, probe(sim, "fastrpc", "invoke:" + label) as span:
            if span is not None:
                span.meta["process"] = self.process_id
                span.meta["input_bytes"] = input_bytes
                span.meta["output_bytes"] = output_bytes
            # User side: marshal arguments.
            with probe(sim, "fastrpc", "user:marshal"):
                yield Work(
                    params.FASTRPC_MARSHAL_US,
                    label=f"fastrpc:{label}:marshal",
                )
            pending.add(("marshal_us", params.FASTRPC_MARSHAL_US))

            # Kernel entry + cache clean so the DSP sees our writes. The
            # flush is CPU work (cache maintenance by VA runs on the core).
            with probe(sim, "fastrpc", "kernel:ioctl"):
                yield Work(params.IOCTL_US, label=f"fastrpc:{label}:ioctl")
            pending.add(("kernel_us", params.IOCTL_US))
            if self.dsp.coupling == "loose":
                flush_us = memory.cache_flush_us(input_bytes)
                with probe(sim, "fastrpc", "kernel:cache_flush"):
                    yield Work(flush_us, label=f"fastrpc:{label}:flush")
                pending.add(("cache_flush_us", flush_us))

            # Signal the DSP and wait in its queue (capacity-1 device).
            yield Sleep(params.FASTRPC_SIGNAL_US)
            pending.add(("signal_us", params.FASTRPC_SIGNAL_US))
            queue_start = self.kernel.now
            if fault is not None:
                # Injected failures surface here, where a real wedged
                # DSP or dead session would: after the CPU-side costs
                # are sunk. _fail_injected always raises.
                yield from self._fail_injected(fault, span, label,
                                               queue_start, pending)
            # The grant is held in a with-block so the queue slot is
            # returned on *every* exit — the old try/finally started
            # after the queue wait, so an exception thrown at the
            # WaitFor (a failed event: fault injection, watchdog abort)
            # leaked the slot and wedged the capacity-1 DSP for the rest
            # of the run.
            with self.dsp.resource.request() as request:
                with probe(sim, "fastrpc", "dsp:queue") as queue_span:
                    if queue_span is not None:
                        queue_span.meta["depth"] = (
                            self.dsp.resource.queue_length
                        )
                    yield WaitFor(request)
                pending.add(
                    ("dsp_queue_us", self.kernel.now - queue_start)
                )
                # Move inputs over AXI into VTCM, compute, move outputs
                # back.
                if self.dsp.coupling == "loose":
                    in_transfer = memory.axi_transfer_us(input_bytes)
                    with probe(sim, "fastrpc", "axi:input_transfer"):
                        yield Sleep(in_transfer)
                    pending.add(("transfer_us", in_transfer))
                span = None
                if sim.trace is not None:
                    span = sim.trace.begin(
                        "cdsp", label, process=self.process_id
                    )
                with probe(sim, "fastrpc", "dsp:dispatch_compute"):
                    yield Sleep(
                        params.FASTRPC_DSP_DISPATCH_US + dsp_compute_us
                    )
                if span is not None:
                    sim.trace.end(span)
                self.soc.energy.add_dsp_busy(
                    params.FASTRPC_DSP_DISPATCH_US + dsp_compute_us
                )
                pending.add(("dsp_compute_us", dsp_compute_us))
                if self.dsp.coupling == "loose":
                    out_transfer = memory.axi_transfer_us(output_bytes)
                    with probe(sim, "fastrpc", "axi:output_transfer"):
                        yield Sleep(out_transfer)
                    pending.add(("transfer_us", out_transfer))

            # DSP -> CPU completion signal, kernel exit, invalidate
            # outputs.
            yield Sleep(params.FASTRPC_SIGNAL_US)
            pending.add(("signal_us", params.FASTRPC_SIGNAL_US))
            if self.dsp.coupling == "loose":
                invalidate_us = memory.cache_flush_us(output_bytes)
                with probe(sim, "fastrpc", "kernel:cache_invalidate"):
                    yield Work(
                        invalidate_us, label=f"fastrpc:{label}:invalidate"
                    )
                pending.add(("cache_flush_us", invalidate_us))
            with probe(sim, "fastrpc", "kernel:ioctl_return"):
                yield Work(params.IOCTL_US, label=f"fastrpc:{label}:ret")
            pending.add(("kernel_us", params.IOCTL_US))

        self.stats.calls += 1
        return self.kernel.now - start

    def _fail_injected(self, fault, span, label, queue_start, pending):
        """Surface an injected fault as the driver would. Always raises.

        ``pending`` is the caller's :class:`_StatsCommitLog`; it
        commits when :meth:`invoke` unwinds, so the failure accounting
        lands atomically with the stage times already logged.
        """
        sim = self.kernel.sim
        instant(sim, f"fault:{fault.kind}",
                {"process": self.process_id, "call": label})
        if span is not None:
            span.meta["status"] = fault.kind
        if fault.kind == FAULT_TIMEOUT:
            # The DSP never picks the call up; the caller burns the
            # driver timeout in the queue, then pays the kernel exit.
            wait = params.FASTRPC_INJECTED_TIMEOUT_US
            with probe(sim, "fastrpc", "dsp:queue",
                       {"depth": self.dsp.resource.queue_length}):
                yield Sleep(wait)
            pending.add(("dsp_queue_us", self.kernel.now - queue_start))
            yield Work(params.IOCTL_US, label=f"fastrpc:{label}:etimedout")
            pending.add(("kernel_us", params.IOCTL_US))
            pending.add(("timeouts", 1))
            raise FastRpcTimeout(
                f"injected: DSP unresponsive for {wait:.0f}us"
            )
        if fault.kind == FAULT_SSR:
            # Subsystem restart: the watchdog fires, every process
            # mapping is dropped, and each victim pays the session
            # remap/reload cost again at its next open.
            yield Sleep(params.FASTRPC_SSR_DETECT_US)
            dropped = self.dsp.restart()
            self._session_open = False
            yield Work(params.IOCTL_US, label=f"fastrpc:{label}:ssr")
            pending.add(("kernel_us", params.IOCTL_US))
            pending.add(("ssr_events", 1))
            raise FastRpcSessionDeath(
                f"injected: DSP subsystem restart dropped {dropped} "
                "process mappings"
            )
        if fault.kind == FAULT_SESSION_DEATH:
            # Only this channel's handle dies; the DSP itself survives.
            self.dsp.unmap_process(self.process_id)
            self._session_open = False
            yield Work(params.IOCTL_US, label=f"fastrpc:{label}:enosuchdev")
            pending.add(("kernel_us", params.IOCTL_US))
            pending.add(("session_deaths", 1))
            raise FastRpcSessionDeath(
                f"injected: driver killed session for process "
                f"{self.process_id}"
            )
        raise RuntimeError(f"unhandled fault kind {fault.kind!r}")

    def invoke_retrying(self, input_bytes, output_bytes, dsp_compute_us,
                        label="invoke"):
        """:meth:`invoke` under the channel's retry policy.

        Failed calls (timeout or session death) are retried up to
        ``retry_policy.max_retries`` times with deterministic
        exponential backoff; a reopened session pays the remap cost
        inside the retried call. The final failure propagates for the
        runtime above to handle (e.g. NNAPI's runtime CPU fallback).
        """
        policy = self.retry_policy
        attempt = 0
        while True:
            try:
                return (yield from self.invoke(
                    input_bytes, output_bytes, dsp_compute_us, label=label
                ))
            except (FastRpcTimeout, FastRpcSessionDeath) as exc:
                if attempt >= policy.max_retries:
                    raise
                backoff = policy.backoff_for(attempt)
                attempt += 1
                self.stats.retries += 1
                self.stats.backoff_us += backoff
                with probe(self.kernel.sim, "fastrpc", f"retry:{label}",
                           {"attempt": attempt,
                            "cause": type(exc).__name__}):
                    if backoff > 0:
                        yield Sleep(backoff)


def call_flow_stages():
    """The Fig. 7 call-flow stage names, in order (for reports/tests)."""
    return (
        "user:marshal",
        "kernel:ioctl",
        "kernel:cache_flush",
        "signal:cpu_to_dsp",
        "dsp:queue",
        "axi:input_transfer",
        "dsp:dispatch_compute",
        "axi:output_transfer",
        "signal:dsp_to_cpu",
        "kernel:cache_invalidate",
        "kernel:ioctl_return",
    )
