"""TFLite-style interpreter with CPU execution and optional delegates.

The interpreter owns model load/parse, then either runs the graph on N
CPU threads with tuned kernels or hands the whole graph to a delegate
(GPU or Hexagon). Matches the structure of the TFLite benchmark
utility the paper uses (§III-B): init once, invoke many times. The GPU
delegate and NNAPI's GPU partitions both run through ``run_graph_on_gpu``.
"""

from repro.android.thread import Sleep, WaitFor, Work
from repro.frameworks.base import InferenceSession, InferenceStats, UnsupportedModelError
from repro.frameworks.cpu_kernels import (
    IMPL_TUNED,
    graph_cpu_work_us,
    parallel_efficiency,
)
from repro.sim.probes import probe

#: Flatbuffer parse cost per op during model load.
_PARSE_PER_OP_US = 1.5
#: Interpreter tensor allocation per op.
_ALLOC_PER_OP_US = 0.8


def run_graph_on_cpu(kernel, ops, dtype, threads=4, label="inference",
                     affinity=None):
    """Generator: execute an op list on ``threads`` CPU threads.

    Priced with the tuned kernels. The calling thread acts as worker 0;
    helpers are spawned for the rest and joined. Contention with
    background load emerges naturally from the scheduler (paper Fig. 10).
    """
    total_work = graph_cpu_work_us(ops, dtype, IMPL_TUNED)
    if threads <= 1:
        yield Work(total_work, label=label)
        return
    efficiency = parallel_efficiency(threads)
    share = total_work / (threads * efficiency)

    def helper():
        yield Work(share, label=f"{label}:worker")

    helpers = [
        kernel.spawn(helper(), name=f"{label}:w{index}", affinity=affinity)
        for index in range(1, threads)
    ]
    yield Work(share, label=f"{label}:w0")
    for thread in helpers:
        if not thread.done.triggered:
            yield WaitFor(thread.done)


def compile_graph_on_gpu(kernel, build_us, label):
    """Generator: shader compile, 40% CPU-side codegen (``label``, plus
    ``build_us`` of graph building) and 60% GPU-side build off-CPU."""
    init_us = kernel.soc.gpu.init_time_us
    yield Work(init_us * 0.4 + build_us, label=label)
    yield Sleep(init_us * 0.6)


def run_graph_on_gpu(kernel, name, ops, dtype, input_bytes, output_bytes,
                     label):
    """Generator: upload, run ``ops`` on the exclusive GPU queue (a
    ``gpu`` span named ``name``), book its energy and read back.

    ``label`` prefixes the upload and readback Work labels.
    """
    soc = kernel.soc
    yield Work(soc.memory.dram_copy_us(input_bytes), label=label + ":upload")
    # The with-block returns the grant on every exit, also when an
    # exception is thrown at the WaitFor.
    with soc.gpu.resource.request() as request:
        yield WaitFor(request)
        compute_us = soc.gpu.graph_time_us(ops, dtype)
        span = None
        if kernel.sim.trace is not None:
            span = kernel.sim.trace.begin("gpu", name)
        yield Sleep(compute_us)
        if span is not None:
            kernel.sim.trace.end(span)
        soc.energy.add_gpu_busy(compute_us)
    yield Work(
        soc.memory.dram_copy_us(output_bytes), label=label + ":readback"
    )


class TfliteInterpreter(InferenceSession):
    """One TFLite interpreter instance bound to a model."""

    def __init__(self, kernel, model, threads=4, delegate=None):
        self.kernel = kernel
        self.model = model
        self.threads = threads
        self.delegate = delegate
        self.prepared = False
        self.stats = InferenceStats()
        # Invoke-span label and metadata are fixed for the session;
        # rendering them per invoke would allocate even on untraced
        # runs (probes copy the shared dict into each span).
        if delegate is None:
            self._invoke_span_label = "cpu_invoke"
            self._invoke_span_meta = {
                "model": model.name, "threads": threads,
            }
        else:
            self._invoke_span_label = "delegate_invoke:" + delegate.name
            self._invoke_span_meta = {"model": model.name}

    def prepare(self):
        """Model load + tensor allocation + delegate initialization."""
        start = self.kernel.now
        memory = self.kernel.soc.memory
        with probe(self.kernel, "tflite", "load",
                   {"model": self.model.name}):
            load_us = memory.dram_copy_us(self.model.weight_bytes)
            parse_us = self.model.op_count * (
                _PARSE_PER_OP_US + _ALLOC_PER_OP_US
            )
            yield Work(load_us + parse_us, label="tflite:load")
        if self.delegate is not None:
            if not self.delegate.covers(self.model):
                raise UnsupportedModelError(
                    f"{self.delegate.name} cannot run {self.model.name} "
                    f"[{self.model.dtype}]"
                )
            with probe(self.kernel, "tflite",
                       f"delegate_init:{self.delegate.name}"):
                yield from self.delegate.init(self.model)
        self.prepared = True
        self.stats.init_us = self.kernel.now - start

    def invoke(self):
        """One inference; returns wall duration in simulated us."""
        if not self.prepared:
            raise RuntimeError("invoke() before prepare()")
        start = self.kernel.now
        if self.delegate is not None:
            with probe(self.kernel, "tflite", self._invoke_span_label,
                       self._invoke_span_meta):
                yield from self.delegate.invoke(self.model)
        else:
            with probe(self.kernel, "tflite", self._invoke_span_label,
                       self._invoke_span_meta):
                yield from run_graph_on_cpu(
                    self.kernel,
                    self.model.ops,
                    self.model.dtype,
                    threads=self.threads,
                    label=f"{self.model.name}:cpu",
                )
        self.stats.invocations += 1
        return self.kernel.now - start

    def describe_plan(self):
        if self.delegate is not None:
            return f"all {self.model.op_count} ops on {self.delegate.name}"
        return (
            f"all {self.model.op_count} ops on cpu x{self.threads} threads"
        )
