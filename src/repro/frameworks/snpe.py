"""Qualcomm SNPE-style vendor runtime.

The paper (§IV-B) finds that switching from NNAPI to the vendor's SNPE
makes the DSP outperform the CPU "as one would expect": vendor software
is tuned for the chipset and ships complete quantized-op coverage. We
model that as a runtime with full op support on its DSP path and
hand-tuned kernels a constant factor faster than the open-source
delegate's.
"""

from repro.android.fastrpc import FastRpcChannel
from repro.android.thread import Sleep, Work
from repro.faults.recovery import NO_RETRY, DegradationReport, fault_counters
from repro.frameworks.base import InferenceSession, InferenceStats, UnsupportedModelError
from repro.frameworks.delegates import SNPE_DSP_TUNING
from repro.frameworks.support import supports_op
from repro.frameworks.tflite import run_graph_on_cpu
from repro.models import dtype_bytes

#: DLC model conversion/load cost per op.
_DLC_LOAD_PER_OP_US = 5.0
#: DSP graph setup per op at init.
_DSP_PREP_PER_OP_US = 7.0


class SnpeSession(InferenceSession):
    """An SNPE network handle on the chosen runtime ("dsp" or "cpu")."""

    def __init__(self, kernel, model, runtime="dsp", threads=4,
                 fault_injector=None):
        if runtime not in ("dsp", "cpu"):
            raise ValueError(f"unknown SNPE runtime {runtime!r}")
        self.kernel = kernel
        self.model = model
        self.runtime = runtime
        self.threads = threads
        self.prepared = False
        self._channel = None
        #: Fault injection on the DSP channel. The vendor runtime does
        #: NOT recover: FastRPC errors propagate to the application
        #: unchanged (no retry, no CPU fallback) — exactly how a fleet
        #: session dies rather than degrades.
        self.fault_injector = fault_injector
        self.degradation = DegradationReport()
        self.stats = InferenceStats()

    def _check_supported(self):
        if self.runtime == "dsp":
            if self.model.dtype != "int8":
                raise UnsupportedModelError(
                    "SNPE DSP runtime requires a quantized model"
                )
            unsupported = [
                op.kind
                for op in self.model.ops
                if not supports_op("snpe-dsp", op, "int8")
            ]
            if unsupported:
                raise UnsupportedModelError(
                    f"SNPE DSP lacks ops: {sorted(set(unsupported))}"
                )

    def prepare(self):
        start = self.kernel.now
        self._check_supported()
        yield Work(
            self.model.op_count * _DLC_LOAD_PER_OP_US, label="snpe:load"
        )
        if self.runtime == "dsp":
            self._channel = FastRpcChannel(
                self.kernel, process_id=self.kernel.allocate_pid(),
                fault_injector=self.fault_injector, retry_policy=NO_RETRY,
            )
            yield from self._channel.open_session()
            yield Sleep(self.model.op_count * _DSP_PREP_PER_OP_US)
        self.prepared = True
        self.stats.init_us = self.kernel.now - start

    def invoke(self):
        if not self.prepared:
            raise RuntimeError("invoke() before prepare()")
        start = self.kernel.now
        if self.runtime == "dsp":
            compute = (
                self.kernel.soc.dsp.graph_time_us(self.model.ops, "int8")
                / SNPE_DSP_TUNING
            )
            in_bytes = self.model.input_spec.numel * dtype_bytes("int8")
            before = fault_counters(self._channel.stats)
            try:
                yield from self._channel.invoke(
                    in_bytes, self.model.output_bytes, compute,
                    label=f"snpe:{self.model.name}",
                )
            finally:
                after = fault_counters(self._channel.stats)
                if after != before:
                    self.degradation.record_invoke(
                        self.stats.invocations, before, after
                    )
        else:
            yield from run_graph_on_cpu(
                self.kernel,
                self.model.ops,
                self.model.dtype,
                threads=self.threads,
                label=f"snpe:{self.model.name}:cpu",
            )
        self.stats.invocations += 1
        return self.kernel.now - start

    def describe_plan(self):
        return f"all {self.model.op_count} ops on snpe-{self.runtime}"
