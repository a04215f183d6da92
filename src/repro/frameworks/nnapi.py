"""The NNAPI runtime: compilation, partitioning, and CPU fallback.

NNAPI (paper §II-D) compiles a model once: it asks each vendor driver
which ops it supports, slices the graph into contiguous partitions, and
assigns each partition to a device. Unsupported ops — and accelerator
runs too short to be worth a crossing — execute on the runtime's
*reference* CPU kernels, single-threaded.

This is the machinery behind the paper's Fig. 5: quantized
EfficientNet-Lite0's residual ``ADD`` ops are missing from the DSP
driver, the graph shatters into sub-minimum fragments, everything lands
on the slow reference path, and end-to-end latency degrades ~7x versus
just using the tuned single-thread CPU kernels directly.
"""

from repro.android.fastrpc import (
    FastRpcChannel,
    FastRpcSessionDeath,
    FastRpcTimeout,
)
from repro.android.thread import Work
from repro.faults.recovery import DegradationReport, fault_counters
from repro.frameworks.base import (
    FAST_SINGLE_ANSWER,
    EXECUTION_PREFERENCES,
    InferenceSession,
    InferenceStats,
    Partition,
)
from repro.frameworks.cpu_kernels import (
    IMPL_REFERENCE,
    graph_cpu_work_us,
)
from repro.frameworks.support import supports_op
from repro.frameworks.tflite import (
    compile_graph_on_gpu,
    run_graph_on_cpu,
    run_graph_on_gpu,
)
from repro.sim.probes import probe
from repro.models import dtype_bytes

#: Compilation cost: base plus per-op partitioning work.
_COMPILE_BASE_US = 900.0
_COMPILE_PER_OP_US = 6.0
#: Accelerator runs shorter than this are demoted to the CPU.
_MIN_ACCELERATOR_RUN = 3
#: CPU-side cost of handing a partition across a device boundary.
_BOUNDARY_DISPATCH_US = 14.0
#: Device-boundary density above which the runtime abandons the
#: accelerator plan and executes everything on its single-threaded
#: reference kernels. An over-fragmented plan means the driver rejects
#: more of the graph than the crossings are worth; the runtime's escape
#: hatch is the slow portable path — the paper's Fig. 5 failure mode.
_MAX_FRAGMENTATION = 0.18

#: Pre-rendered span labels for the per-invoke partition probes; an
#: f-string here would allocate on every partition even when tracing
#: is off (unknown devices fall back to concatenation).
_PARTITION_SPAN_LABELS = {
    device: "partition:" + device
    for device in ("cpu", "cpu-reference", "gpu", "dsp")
}


class NnapiSession(InferenceSession):
    """An NNAPI compilation + execution for one model."""

    def __init__(self, kernel, model, preference=FAST_SINGLE_ANSWER,
                 threads=4, feature_level=None, fault_injector=None):
        if preference not in EXECUTION_PREFERENCES:
            raise ValueError(f"unknown execution preference {preference!r}")
        self.kernel = kernel
        self.model = model
        self.preference = preference
        #: NNAPI feature level; defaults to what the platform ships.
        if feature_level is None:
            feature_level = getattr(
                kernel.soc.spec, "nnapi_feature_level", 1.1
            )
        self.feature_level = feature_level
        #: Interpreter threads used for partitions the driver rejected
        #: (TFLite keeps those ops on its own tuned kernels).
        self.threads = threads
        self.partitions = []
        self.reference_fallback = False
        self.prepared = False
        self._channel = None
        #: Optional :class:`~repro.faults.plan.FaultInjector` driving
        #: deterministic DSP failures through the FastRPC channel.
        self.fault_injector = fault_injector
        #: Ledger of faults, retries, and runtime CPU fallbacks — the
        #: graceful-degradation account for this session.
        self.degradation = DegradationReport()
        self._invoke_fallbacks = 0
        self._invoke_fallback_us = 0.0
        self.stats = InferenceStats()

    # -- compilation -----------------------------------------------------

    @property
    def accelerator_backend(self):
        """Which vendor driver NNAPI consults for this dtype."""
        return "nnapi-dsp" if self.model.dtype == "int8" else "nnapi-gpu"

    def plan_partitions(self):
        """Slice the graph into device partitions (pure, no simulation)."""
        backend = self.accelerator_backend
        dtype = self.model.dtype
        device = "dsp" if backend == "nnapi-dsp" else "gpu"
        runs = []
        current_device = None
        current_ops = []
        for op in self.model.ops:
            supported = supports_op(
                backend, op, dtype, feature_level=self.feature_level
            )
            target = device if supported else "cpu"
            if target != current_device and current_ops:
                runs.append(Partition(current_device, tuple(current_ops)))
                current_ops = []
            current_device = target
            current_ops.append(op)
        if current_ops:
            runs.append(Partition(current_device, tuple(current_ops)))

        # Demote accelerator runs too short to amortize a crossing.
        for partition in runs:
            if partition.device != "cpu" and partition.op_count < _MIN_ACCELERATOR_RUN:
                partition.device = "cpu"
        # Merge adjacent same-device runs.
        merged = []
        for partition in runs:
            if merged and merged[-1].device == partition.device:
                merged[-1] = Partition(
                    partition.device, merged[-1].ops + partition.ops
                )
            else:
                merged.append(partition)
        for index, partition in enumerate(merged):
            partition.index = index

        # Over-fragmented plan: the runtime gives up on the accelerator
        # and executes the whole model on reference kernels.
        fragmentation = (len(merged) - 1) / max(1, self.model.op_count)
        if fragmentation > _MAX_FRAGMENTATION:
            self.reference_fallback = True
            return [Partition("cpu-reference", tuple(self.model.ops))]
        self.reference_fallback = False
        return merged

    def prepare(self):
        """Model compilation (paper: performed once per model load)."""
        start = self.kernel.now
        with probe(self.kernel, "nnapi", "compile",
                   {"model": self.model.name}):
            with probe(self.kernel, "nnapi", "partition"):
                yield Work(
                    _COMPILE_BASE_US
                    + self.model.op_count * _COMPILE_PER_OP_US,
                    label="nnapi:compile",
                )
                partitions = self.plan_partitions()
                self.partitions = partitions
            devices = {partition.device for partition in partitions}
            if "dsp" in devices or self.model.dtype == "int8":
                # The DSP driver is probed during compilation (capability
                # query + test handshake) — the brief cDSP spike at the
                # start of the paper's Fig. 6 NNAPI profile, present even
                # when execution later falls back to the CPU.
                channel = self._dsp_channel()
                before, retries_before = self._fault_snapshot()
                with probe(self.kernel, "nnapi", "driver_probe:dsp"):
                    try:
                        yield from channel.open_session()
                        yield from channel.invoke_retrying(
                            4_096, 256, dsp_compute_us=150.0,
                            label="nnapi:probe",
                        )
                    except (FastRpcTimeout, FastRpcSessionDeath):
                        # The driver never came up: NNAPI abandons the
                        # accelerator plan at compile time and the whole
                        # model runs on reference kernels (the Fig. 5
                        # escape hatch, reached via a dead driver
                        # instead of fragmentation).
                        self.reference_fallback = True
                        self.degradation.compile_fallback = True
                        self.partitions = [
                            Partition("cpu-reference", tuple(self.model.ops))
                        ]
                after, retries_after = self._fault_snapshot()
                if after != before or retries_after != retries_before:
                    self.degradation.record_invoke(
                        -1, before, after,
                        retries=retries_after - retries_before,
                    )
            # Re-derived from the *current* plan: the DSP probe above
            # may have abandoned the accelerator partitions entirely
            # (compile fallback), and a plan with no GPU partitions
            # initializes no GPU delegate.
            if "gpu" in {p.device for p in self.partitions}:
                with probe(self.kernel, "nnapi", "driver_probe:gpu"):
                    yield from compile_graph_on_gpu(
                        self.kernel, 0.0, "nnapi:gpu_compile"
                    )
        if self.preference == "sustained_speed":
            # Cap the boost clock: trades peak latency for a thermally
            # sustainable operating point (no throttle cycling).
            self.kernel.soc.big_cluster.governor.max_fraction = 0.85
        self.prepared = True
        self.stats.init_us = self.kernel.now - start

    def _dsp_channel(self):
        if self._channel is None:
            self._channel = FastRpcChannel(
                self.kernel, process_id=self.kernel.allocate_pid(),
                fault_injector=self.fault_injector,
            )
        return self._channel

    def _fault_snapshot(self):
        """(fault counters, retries) of the DSP channel, zeros if none."""
        if self._channel is None:
            return {}, 0
        return (
            fault_counters(self._channel.stats),
            self._channel.stats.retries,
        )

    # -- execution ---------------------------------------------------------

    def _boundary_bytes(self, partition):
        item = dtype_bytes(self.model.dtype)
        first, last = partition.ops[0], partition.ops[-1]
        return first.input_elems * item, last.output_elems * item

    def invoke(self):
        """One inference across the partition plan."""
        if not self.prepared:
            raise RuntimeError("invoke() before prepare()")
        kernel = self.kernel
        soc = kernel.soc
        start = kernel.now
        previous_device = None
        invoke_index = self.stats.invocations
        faults_before, retries_before = self._fault_snapshot()
        self._invoke_fallbacks = 0
        self._invoke_fallback_us = 0.0
        for partition in self.partitions:
            if previous_device is not None and partition.device != previous_device:
                in_bytes, _ = self._boundary_bytes(partition)
                with probe(kernel, "nnapi", "boundary") as span:
                    if span is not None:
                        span.meta["from_device"] = previous_device
                        span.meta["to_device"] = partition.device
                    yield Work(
                        _BOUNDARY_DISPATCH_US
                        + soc.memory.dram_copy_us(in_bytes),
                        label="nnapi:boundary",
                    )
            previous_device = partition.device
            with probe(kernel, "nnapi",
                       _PARTITION_SPAN_LABELS.get(
                           partition.device,
                           "partition:" + partition.device,
                       )) as span:
                if span is not None:
                    span.meta["index"] = partition.index
                    span.meta["ops"] = partition.op_count
                yield from self._run_partition(partition)
        duration = kernel.now - start
        faults_after, retries_after = self._fault_snapshot()
        self.degradation.record_invoke(
            invoke_index, faults_before, faults_after,
            retries=retries_after - retries_before,
            fallbacks=self._invoke_fallbacks,
            fallback_us=self._invoke_fallback_us,
        )
        self.stats.invocations += 1
        return duration

    def _run_partition(self, partition):
        """Execute one partition on its assigned device (generator)."""
        kernel = self.kernel
        soc = kernel.soc
        if partition.device == "cpu-reference":
            # The runtime's portable kernels: single-threaded scalar
            # loops on the caller thread (paper Fig. 5 / Fig. 6).
            work = graph_cpu_work_us(
                partition.ops, self.model.dtype, IMPL_REFERENCE
            )
            yield Work(work, label="nnapi:reference")
        elif partition.device == "cpu":
            # Driver-rejected ops stay in TFLite's tuned kernels on
            # the interpreter's thread pool (partial delegation, the
            # Inception situation of §IV-A). The execution
            # preference steers placement: LOW_POWER keeps CPU work
            # on the little cluster with fewer threads.
            threads = self.threads
            affinity = None
            if self.preference == "low_power":
                threads = min(self.threads, 2)
                affinity = {
                    core.core_id for core in soc.little_cores
                }
            yield from run_graph_on_cpu(
                self.kernel,
                partition.ops,
                self.model.dtype,
                threads=threads,
                label="nnapi:cpu_partition",
                affinity=affinity,
            )
        elif partition.device == "dsp":
            in_bytes, out_bytes = self._boundary_bytes(partition)
            compute = soc.dsp.graph_time_us(partition.ops, "int8")
            try:
                yield from self._dsp_channel().invoke_retrying(
                    in_bytes, out_bytes, compute,
                    label=f"nnapi:{self.model.name}[{partition.index}]",
                )
            except (FastRpcTimeout, FastRpcSessionDeath) as exc:
                # Runtime CPU fallback: retries are exhausted, so the
                # runtime re-runs just this partition on its portable
                # reference kernels and the invoke completes — degraded,
                # never dead. (Distinct from the compile-time
                # ``reference_fallback``, which never tries the DSP.)
                work = graph_cpu_work_us(
                    partition.ops, self.model.dtype, IMPL_REFERENCE
                )
                with probe(kernel, "nnapi", "runtime_fallback",
                           {"index": partition.index,
                            "cause": type(exc).__name__}):
                    yield Work(work, label="nnapi:runtime_fallback")
                self._invoke_fallbacks += 1
                self._invoke_fallback_us += work
        elif partition.device == "gpu":
            in_bytes, out_bytes = self._boundary_bytes(partition)
            yield from run_graph_on_gpu(
                kernel, self.model.name, partition.ops, self.model.dtype,
                in_bytes, out_bytes, "nnapi",
            )
        else:
            raise RuntimeError(f"unknown device {partition.device!r}")

    def describe_plan(self):
        if not self.partitions:
            self.partitions = self.plan_partitions()
        pieces = [
            f"{partition.device}x{partition.op_count}"
            for partition in self.partitions
        ]
        return " -> ".join(pieces)

    def accelerated_fraction(self):
        """Fraction of FLOPs placed on an accelerator by the plan."""
        if not self.partitions:
            self.partitions = self.plan_partitions()
        total = sum(partition.flops for partition in self.partitions)
        if total == 0:
            return 0.0
        accelerated = sum(
            partition.flops
            for partition in self.partitions
            if partition.device in ("dsp", "gpu")
        )
        return accelerated / total
