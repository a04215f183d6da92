"""CFS-style scheduler over the simulated SoC's cores.

Design notes
------------

* One global runqueue (per-thread affinity masks filter eligibility);
  each core runs a dispatch loop that picks the runnable thread with the
  lowest virtual runtime, charges a context switch if it is not the one
  that ran there last, and executes at most one timeslice before
  re-picking.
* Threads waking onto a different core than they last ran on pay a
  migration penalty (cold caches) and are counted — the "frequent CPU
  migrations" annotation 4 of the paper's Fig. 6 profile.
* Idle cores are woken in randomized order when work arrives, which —
  combined with interference daemons — reproduces the single hot thread
  bouncing across cores 4-7 that the paper observes for the NNAPI CPU
  fallback path. Most woken cores find the work already taken. One
  wake-all hands its idle events to the simulator in one
  :meth:`~repro.sim.Simulator.schedule_now` call.
* Each core loop owns one idle event, one timer and one callbacks list
  ``[loop._run]``, all built once. Going idle re-arms the idle event in
  place with that list as its callbacks; a timeslice, a context switch
  and a misfit handoff restart the timer (:meth:`Timeout.restart
  <repro.sim.events.Timeout.restart>`) with the list's one callback. So
  a wakeup that finds nothing to run allocates nothing, and a timeslice
  allocates only the one-element list ``restart`` installs.
* Each governor loop likewise owns one timer and one callbacks list
  ``[loop._tick]``, and restarts the timer with that callback every
  window.
* A core loop books each slice's energy itself, at a busy power fixed
  when the loop is built: ``busy_watts * fraction ** 3 * duration_us``
  into the meter's ``cpu_uj`` and then its ``by_label`` entry. That
  line is the CPU slice-energy formula's one definition.
* A thread owns one sleep timer, which every ``Sleep`` restarts with
  the thread's ``_wake``: a thread is never asleep twice at once.
* :meth:`Kernel.close` ends a device's scheduler. It closes every
  unfinished thread body and drops each thread's process
  back-reference and sleep timer; drops the callbacks of every idle
  event still pending and empties the thread, runqueue and idle-event
  tables; and drops each loop's callbacks list (its bound method holds
  the loop) and empties the kernel's list of loops.
* Per-cluster DVFS governors sample window utilization; a benchmark's
  tight loop pins the top OPP while an app idling between camera frames
  ramps up and down, contributing run-to-run variability (Fig. 11).
"""

from repro.android import params
from repro.sim.events import PENDING, TRIGGERED, Event, Timeout
from repro.android.thread import (
    BLOCKED,
    DONE,
    RUNNABLE,
    RUNNING,
    Sleep,
    SimThread,
    WaitFor,
    Work,
)

#: Governor sampling window.
_GOVERNOR_WINDOW_US = 4_000.0
#: Thermal model sampling window.
_THERMAL_WINDOW_US = 50_000.0
#: Trace counter-sampling window (die temperature, runqueue depth).
#: Offset from the governor window so samples never tie with governor
#: events at the same timestamp.
_TRACE_SAMPLE_WINDOW_US = 5_000.0
#: Floor for core speed so a throttled core still makes progress.
_MIN_SPEED = 0.01


class Kernel:
    """Scheduler + OS services for one simulated device."""

    def __init__(self, sim, soc, enable_dvfs=True, enable_thermal=False):
        self.sim = sim
        self.soc = soc
        #: The simulator's TraceRecorder, or None; fixed at Simulator
        #: construction. Probes given a kernel resolve it in one lookup.
        self.trace = sim.trace
        self.threads = []
        self._runqueue = []
        self._idle_events = {}
        self._total_busy = 0.0
        self._rng = sim.rng.stream("sched")
        self._next_pid = 1000
        self._next_tid = 1
        #: The core and governor loops, so close() can drop the
        #: callbacks list each one built.
        self._loops = []
        # Static per-core tables for the dispatch hot paths: the
        # negated perf index keyed by core id (same ordering the old
        # `sort(key=lambda cid: -soc.core(cid).perf_index)` produced,
        # without a linear core lookup per element) and, per core, the
        # strictly-faster cores a preempted thread could misfit-migrate
        # to, in `soc.cores` order. `_cores` is that order, read on every
        # enqueue.
        self._cores = tuple(soc.cores)
        self._neg_perf = {core.core_id: -core.perf_index for core in soc.cores}
        self._faster_cores = {
            core.core_id: tuple(
                other for other in soc.cores
                if other.perf_index > core.perf_index
            )
            for core in soc.cores
        }
        # Start dispatch loops fastest-core-first so work queued before
        # the first simulation step lands on the big cluster. These are
        # callback state machines, not generator Processes: one event
        # callback frame replaces the Process._resume -> generator.send
        # chain on the two hottest loops in the simulation. Their event
        # streams — bootstrap labels included — are byte-identical to
        # the generator forms they replaced (see docs/performance.md).
        for core in sorted(soc.cores, key=lambda c: -c.perf_index):
            self._loops.append(_CoreLoop(self, core))
        if enable_dvfs:
            for cluster in soc.clusters:
                self._loops.append(_GovernorLoop(self, cluster))
        if enable_thermal:
            sim.process(self._thermal_loop(), name="thermal")
        if sim.trace is not None:
            sim.process(self._trace_sampler_loop(), name="trace-sampler")

    @property
    def now(self):
        return self.sim.now

    def close(self):
        """Let go of the device's threads once the simulation is over.

        Closes every unfinished thread body (its frames hold this kernel
        and the session's objects), drops each thread's process
        back-reference and sleep timer (a scheduled timer's callback is
        the thread), and empties the thread, runqueue and idle-event
        tables; an idle event's one callback is its core loop, which
        holds the event. Drops each core and governor loop's callbacks
        list, whose bound method holds the loop, and then the list of
        loops. Call it before :meth:`Simulator.close
        <repro.sim.Simulator.close>`: a closing body can release a
        resource and so schedule a grant. The kernel cannot run
        afterwards.
        """
        for thread in self.threads:
            thread.body.close()
            thread.process = None
            thread._sleep_timer = None
        self.threads.clear()
        self._runqueue.clear()
        for idle in self._idle_events.values():
            if idle is not None:
                idle.callbacks = None
        self._idle_events.clear()
        for loop in self._loops:
            loop._callbacks = None
        self._loops.clear()

    def allocate_pid(self):
        """Deterministic process-id allocation, fresh per simulation.

        Pids end up in trace metadata, so they must not come from
        interpreter state (``id()``, module counters) — identical runs
        must export byte-identical traces.
        """
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def allocate_tid(self):
        """Deterministic thread-id allocation, fresh per simulation.

        Same contract as :meth:`allocate_pid`: tids are exported in
        trace-event args, so a process-global counter would make the
        Nth simulation in a process export different bytes than the
        first.
        """
        tid = self._next_tid
        self._next_tid += 1
        return tid

    # -- thread lifecycle ------------------------------------------------

    def spawn(self, body, name, nice=0, affinity=None, process=None):
        """Create and start a thread running generator ``body``."""
        thread = SimThread(
            self, body, name, nice=nice, affinity=affinity, process=process
        )
        self.threads.append(thread)
        self._advance(thread, None)
        return thread

    def spawn_on_big(self, body, name, **kwargs):
        """Spawn with affinity to the big cluster (perf-critical work)."""
        affinity = {core.core_id for core in self.soc.big_cores}
        return self.spawn(body, name, affinity=affinity, **kwargs)

    # -- scheduling internals ----------------------------------------------

    def _advance(self, thread, value, exception=None):
        """Run the thread body to its next scheduling request."""
        try:
            if exception is not None:
                request = thread.body.throw(exception)
            else:
                request = thread.body.send(value)
        except StopIteration as stop:
            thread.state = DONE
            thread.done.succeed(getattr(stop, "value", None))
            return
        if isinstance(request, Work):
            if request.ref_us <= 0:
                self._advance(thread, None)
                return
            thread.remaining_work = request.ref_us
            thread.current_label = request.label
            self._enqueue(thread)
        elif isinstance(request, Sleep):
            thread.state = BLOCKED
            timer = thread._sleep_timer
            if timer is None:
                timer = thread._sleep_timer = Timeout(
                    self.sim, request.duration_us, name=thread._sleep_name
                )
                timer.callbacks.append(thread._wake)
            else:
                timer.restart(request.duration_us, thread._wake)
        elif isinstance(request, WaitFor):
            thread.state = BLOCKED
            event = request.event
            if event.processed:
                thread._awaited = event
                Timeout(self.sim, 0.0).callbacks.append(
                    thread._resume_awaited
                )
            else:
                event.callbacks.append(thread._resume)
        else:
            raise TypeError(
                f"thread {thread.name!r} yielded {request!r}; expected "
                "Work, Sleep, or WaitFor"
            )

    def _resume_from_event(self, thread, event):
        if event._exception is not None:
            self._advance(thread, None, exception=event._exception)
        else:
            self._advance(thread, event._value)

    def _enqueue(self, thread):
        thread.state = RUNNABLE
        # Place woken threads at the head of the fairness window so they
        # get CPU promptly without resetting accumulated fairness: raise
        # the thread's vruntime to the lowest among the runnable and
        # running threads (0.0 when there are none). One pass, no
        # intermediate list: this runs on every wakeup.
        runqueue = self._runqueue
        floor = None
        for other in runqueue:
            if floor is None or other.vruntime < floor:
                floor = other.vruntime
        for core in self._cores:
            running = core.current_thread
            if running is not None and running.state == RUNNING:
                if floor is None or running.vruntime < floor:
                    floor = running.vruntime
        if floor is None:
            floor = 0.0
        if floor > thread.vruntime:
            thread.vruntime = floor
        runqueue.append(thread)
        self._wake_idle_cores(thread)

    def _wake_idle_cores(self, thread):
        idle_events = self._idle_events
        affinity = thread.affinity
        if affinity is None:
            eligible = [
                core_id
                for core_id, event in idle_events.items()
                if event is not None
            ]
        else:
            eligible = [
                core_id
                for core_id, event in idle_events.items()
                if event is not None and core_id in affinity
            ]
        if not eligible:
            return
        # Capacity-aware placement (EAS-style): offer work to the fastest
        # idle cores first, with a randomized tiebreak within a cluster so
        # placement among equal cores is not always cpu4. NumPy's
        # Generator.shuffle draws nothing for sequences of length <= 1,
        # so skipping it there leaves the RNG stream byte-identical.
        if len(eligible) > 1:
            self._rng.shuffle(eligible)
            eligible.sort(key=self._neg_perf.__getitem__)
        woken = []
        for core_id in eligible:
            event = idle_events[core_id]
            idle_events[core_id] = None
            # Inlined event.succeed() with no value, scheduled below in
            # one batch: idle events are re-armed PENDING by the core
            # loop and only triggered here.
            event._state = TRIGGERED
            woken.append(event)
        self.sim.schedule_now(woken)

    # -- periodic services ----------------------------------------------

    def _trace_sampler_loop(self):
        # Counter tracks for the Chrome-trace export: die temperature
        # and global runqueue depth, sampled on their own window so the
        # "C" events are dense enough to plot but never perturb the
        # schedule (the loop only reads state).
        trace = self.sim.trace
        while True:
            yield self.sim.timeout(_TRACE_SAMPLE_WINDOW_US)
            trace.count("temp_c", self.soc.thermal.temperature)
            trace.count("runqueue", len(self._runqueue))

    def _thermal_loop(self):
        # Die heating is dominated by the big cluster (its cores draw
        # ~5x a little core): normalize load to the big-core count so a
        # saturated big cluster drives the die towards max temperature.
        last_busy = 0.0
        big_count = max(1, len(self.soc.big_cores))
        while True:
            yield self.sim.timeout(_THERMAL_WINDOW_US)
            window_busy = self._total_busy - last_busy
            last_busy = self._total_busy
            load = min(1.0, window_busy / (_THERMAL_WINDOW_US * big_count))
            self.soc.thermal.update(load)

    # -- system call / IPC helpers (generators for thread bodies) -------

    def syscall(self, work_us=0.0, label="syscall"):
        """Kernel round trip plus optional in-kernel work."""
        yield Work(params.IOCTL_US + work_us, label=label)


class _CoreLoop:
    """Dispatch loop for one core, written as a callback state machine.

    Semantically this is the generator::

        while True:
            thread = pick()                   # or wait on an idle event
            maybe yield Timeout(ctx_switch)   # if a different thread ran
            yield Timeout(slice)              # execute one timeslice
            account(); maybe yield Timeout(0) # misfit handoff

    driven directly by event callbacks instead of through a
    :class:`~repro.sim.process.Process`. Every timeslice on every core
    passes through this loop — it retires the large majority of all
    simulation events — and the ``Process._resume`` ->
    ``generator.send`` frames cost more than the loop body itself. The
    events it creates (labels, creation order, priorities, including
    the ``<core>:loop:start`` bootstrap) are byte-identical to the
    generator form it replaced, which the sanitizer's replay digest
    pins (see ``docs/performance.md``).

    The loop never has more than one event pending, so it owns one idle
    event and one timer and re-arms them in place; the digest hashes
    labels and sequence numbers, not object identity. It also builds its
    callbacks list ``[self._run]`` once: every idle re-arm installs that
    list, and every timer restart its one callback. The list holds the
    loop, so :meth:`Kernel.close` drops it.
    """

    # Resume states: where the loop continues when its pending event pops.
    _PICK = 0
    _RUN = 1
    _ACCOUNT = 2

    __slots__ = (
        "kernel", "sim", "trace", "core", "core_id", "runqueue",
        "idle_events", "cluster", "governor", "opp_max_khz", "perf_index",
        "faster_cores", "energy", "by_label", "busy_watts",
        "context_switch_us", "migration_penalty_us", "timeslice_us",
        "_callbacks", "_idle", "_timer", "_state", "_thread",
        "_slice_work", "_duration_us", "_span",
    )

    def __init__(self, kernel, core):
        sim = kernel.sim
        self.kernel = kernel
        self.sim = sim
        self.trace = sim.trace  # fixed at Simulator construction
        self.core = core
        self.core_id = core.core_id
        self.runqueue = kernel._runqueue
        self.idle_events = kernel._idle_events
        cluster = core.cluster
        self.cluster = cluster
        self.governor = cluster.governor
        self.opp_max_khz = cluster.governor.opp.max_khz
        self.perf_index = core.perf_index
        self.faster_cores = kernel._faster_cores[core.core_id]
        energy = kernel.soc.energy
        self.energy = energy
        self.by_label = energy.by_label
        self.busy_watts = energy.core_busy_watts(core)
        self.context_switch_us = params.CONTEXT_SWITCH_US
        self.migration_penalty_us = params.MIGRATION_PENALTY_US
        self.timeslice_us = params.TIMESLICE_US
        # Installed by every idle re-arm; its one element is the
        # callback of every timer restart. Dropped by Kernel.close().
        self._callbacks = [self._run]
        # Re-armed whenever the core goes idle; triggered only by
        # Kernel._wake_idle_cores.
        self._idle = Event(sim, name=core.name + ":idle")
        # Created by the first wait and restarted by every later one.
        self._timer = None
        self._state = self._PICK
        self._thread = None
        self._slice_work = 0.0
        self._duration_us = 0.0
        self._span = None
        # Bootstrap identical to ``sim.process(..., name=f"{core.name}:loop")``:
        # its pop runs the first dispatch round.
        sim.bootstrap(core.name + ":loop", self._run)

    def _run(self, _event):
        if self._state == 0 and not self.runqueue:
            # Woken with nothing to run — the usual outcome of the
            # wake-all, where another core took the work first. Re-arm
            # the idle event before loading the dispatch loop's locals.
            idle = self._idle
            idle._state = PENDING
            idle.callbacks = self._callbacks
            self.idle_events[self.core_id] = idle
            return
        # One activation: loop over states until the machine blocks on
        # its idle event (return) or its timer (break). Neither ever
        # fails, so there is no exception relay.
        kernel = self.kernel
        core = self.core
        core_id = self.core_id
        runqueue = self.runqueue
        trace = self.trace
        state = self._state
        thread = self._thread
        while True:
            if state == 0:  # _PICK: choose a thread or go idle
                # Lowest-vruntime runnable thread this core may run.
                thread = None
                best_vruntime = 0.0
                for candidate in runqueue:
                    affinity = candidate.affinity
                    if affinity is not None and core_id not in affinity:
                        continue
                    vruntime = candidate.vruntime
                    if thread is None or vruntime < best_vruntime:
                        thread = candidate
                        best_vruntime = vruntime
                if thread is None:
                    idle = self._idle
                    idle._state = PENDING
                    idle.callbacks = self._callbacks
                    self.idle_events[core_id] = idle
                    self._state = 0
                    self._thread = None
                    return
                runqueue.remove(thread)
                thread.state = RUNNING
                if core.current_thread is not thread:
                    thread.stats.context_switches += 1
                    if trace is not None:
                        trace.count(f"ctx_switch:{core.name}")
                        trace.count("ctx_switch")
                    delay = self.context_switch_us
                    self._state = 1
                    self._thread = thread
                    break
                state = 1
            elif state == 1:  # _RUN: charge migration, run one slice
                if (
                    thread.last_core_id is not None
                    and thread.last_core_id != core_id
                ):
                    thread.stats.migrations += 1
                    thread.penalty_work += self.migration_penalty_us
                    if trace is not None:
                        trace.count("migration")
                        trace.mark(
                            "migration",
                            thread=thread.name,
                            from_core=thread.last_core_id,
                            to_core=core_id,
                        )
                core.current_thread = thread
                thread.last_core_id = core_id
                # Core speed: perf index x OPP fraction (current_khz /
                # max_khz) x thermal factor, floored at _MIN_SPEED.
                fraction = self.governor.current_khz / self.opp_max_khz
                speed = (
                    self.perf_index * fraction * self.cluster.thermal_factor
                )
                if speed < _MIN_SPEED:
                    speed = _MIN_SPEED
                # At most one timeslice's worth of work at this speed.
                total_work = thread.penalty_work + thread.remaining_work
                most_work = self.timeslice_us * speed
                slice_work = (
                    most_work if most_work < total_work else total_work
                )
                duration_us = slice_work / speed
                span = None
                if trace is not None:
                    span = trace.begin(
                        core.name, thread.name, tid=thread.tid
                    )
                delay = duration_us
                self._state = 2
                self._thread = thread
                self._slice_work = slice_work
                self._duration_us = duration_us
                self._span = span
                break
            else:  # _ACCOUNT: book the finished slice
                span = self._span
                if span is not None:
                    trace.end(span)
                    self._span = None
                slice_work = self._slice_work
                duration_us = self._duration_us
                penalty_used = thread.penalty_work
                if slice_work < penalty_used:
                    penalty_used = slice_work
                thread.penalty_work -= penalty_used
                thread.remaining_work -= slice_work - penalty_used
                thread.vruntime += duration_us / thread.weight
                stats = thread.stats
                stats.cpu_time_us += duration_us
                stats.cores_used.add(core_id)
                core.busy_us += duration_us
                # The slice's energy, at the OPP current *now* (slice
                # end): the governor may have stepped mid-slice, so this
                # is not the fraction used for speed. A fully busy core
                # draws busy_watts * fraction ** 3 (P ~ f * V^2, V ~ f),
                # and W x us is uJ.
                fraction = self.governor.current_khz / self.opp_max_khz
                energy_uj = self.busy_watts * fraction ** 3 * duration_us
                self.energy.cpu_uj += energy_uj
                label = thread.current_label or thread.name
                by_label = self.by_label
                by_label[label] = by_label.get(label, 0.0) + energy_uj
                kernel._total_busy += duration_us
                if thread.remaining_work <= 1e-9:
                    thread.state = BLOCKED
                    thread.remaining_work = 0.0
                    kernel._advance(thread, None)
                    state = 0
                    continue
                thread.state = RUNNABLE
                runqueue.append(thread)
                # Misfit migration (EAS): when a strictly faster core
                # sits idle, hand the preempted thread over instead of
                # re-picking it here — the zero timeout gives the woken
                # core's loop one schedule round to steal. Equal or
                # slower idle cores never steal, avoiding migration
                # ping-pong at slice boundaries. ``faster_cores`` is
                # the precomputed tuple of strictly faster cores.
                idle_events = self.idle_events
                for other in self.faster_cores:
                    if idle_events.get(other.core_id) is not None and (
                        thread.can_run_on(other)
                    ):
                        break
                else:  # no faster idle core can take it: re-pick here
                    state = 0
                    continue
                kernel._wake_idle_cores(thread)
                delay = 0.0
                self._state = 0
                self._thread = None
                break
        timer = self._timer
        if timer is None:
            timer = self._timer = Timeout(self.sim, delay)
            timer.callbacks = self._callbacks
        else:
            timer.restart(delay, self._callbacks[0])


class _GovernorLoop:
    """Periodic schedutil sampling for one cluster (callback form).

    schedutil tracks per-CPU utilization and a cluster runs at the
    frequency its *busiest* core needs — a single fully-busy core pins
    the whole cluster at the top OPP. Like :class:`_CoreLoop` this is a
    callback state machine with an event stream byte-identical to the
    generator Process it replaced (bootstrap ``gov:<cluster>:start``,
    then one ``timeout(4000.0)`` per window, all from one restarted
    timer). Its callbacks list ``[self._tick]`` is built once, and
    :meth:`Kernel.close` drops it.
    """

    __slots__ = (
        "sim", "trace", "cores", "last_busy", "governor", "update",
        "freq_label", "_callbacks",
    )

    def __init__(self, kernel, cluster):
        sim = kernel.sim
        self.sim = sim
        self.trace = sim.trace
        self.cores = tuple(cluster.cores)
        self.last_busy = [0.0] * len(self.cores)
        self.governor = cluster.governor
        self.update = cluster.governor.update
        self.freq_label = "freq:" + cluster.name
        # The timer's callback at every restart; dropped by Kernel.close().
        self._callbacks = [self._tick]
        sim.bootstrap("gov:" + cluster.name, self._start)

    def _start(self, _event):
        timeout = Timeout(self.sim, _GOVERNOR_WINDOW_US)
        timeout.callbacks = self._callbacks

    def _tick(self, timer):
        # The window's peak busy time, capped once at 1: capping is
        # monotone, so this equals the max of the per-core capped
        # utilizations bit for bit.
        last_busy = self.last_busy
        peak = 0.0
        for index, core in enumerate(self.cores):
            busy = core.busy_us
            window_busy = busy - last_busy[index]
            last_busy[index] = busy
            if window_busy > peak:
                peak = window_busy
        utilization = peak / _GOVERNOR_WINDOW_US
        self.update(utilization if utilization < 1.0 else 1.0)
        if self.trace is not None:
            self.trace.count(self.freq_label, self.governor.current_khz)
        timer.restart(_GOVERNOR_WINDOW_US, self._callbacks[0])
