"""Calibrated OS-level cost constants (microseconds unless noted)."""

# -- scheduler ---------------------------------------------------------------

#: CFS scheduling granularity: how long a thread runs before the core
#: re-picks. Android's sched_min_granularity is ~2-3 ms.
TIMESLICE_US = 3000.0
#: Direct cost of a context switch (register save/restore, runqueue ops).
CONTEXT_SWITCH_US = 6.0
#: Extra work charged when a thread lands on a different core than last
#: time: cold L1/L2, TLB refill. Charged once per migration.
MIGRATION_PENALTY_US = 60.0
#: Nice-level weight ratio per step (kernel uses 1.25x per nice level).
NICE_WEIGHT_STEP = 1.25

# -- kernel crossings --------------------------------------------------------

#: One user->kernel->user round trip (syscall/ioctl).
IOCTL_US = 8.0
#: Binder IPC call overhead (to camera service, surfaceflinger, ...).
BINDER_CALL_US = 110.0

# -- FastRPC (paper Fig. 7) --------------------------------------------------

#: Marshalling the remote call arguments into the shared ring.
FASTRPC_MARSHAL_US = 18.0
#: Driver signalling latency, CPU->DSP or DSP->CPU, per direction.
FASTRPC_SIGNAL_US = 25.0
#: One-time cost of mapping the application process onto the DSP
#: (dynamic loader, memory map setup). Paid at first use per process —
#: the dominant part of the paper's cold-start penalty (Fig. 8).
FASTRPC_SESSION_OPEN_US = 12_000.0
#: DSP-side invoke dispatch (queue pop, stub unmarshal).
FASTRPC_DSP_DISPATCH_US = 30.0
#: How long an injected-timeout call waits before the driver fails it
#: with -ETIMEDOUT, when the channel has no explicit queue timeout.
FASTRPC_INJECTED_TIMEOUT_US = 5_000.0
#: Latency until the driver notices a DSP subsystem restart and fails
#: in-flight calls (watchdog expiry + SSR notification fan-out).
FASTRPC_SSR_DETECT_US = 1_500.0

# -- Android runtime ---------------------------------------------------------

#: Mean/fraction parameters of ART GC pauses seen by app threads.
GC_PAUSE_MEAN_US = 3_500.0
GC_INTERVAL_MEAN_US = 350_000.0
#: UI thread work per rendered frame (layout, draw command recording).
UI_RENDER_US = 3_200.0
