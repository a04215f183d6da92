"""TFLite hardware delegates: GPU and Hexagon.

A delegate takes the whole graph (these two refuse models they cannot
fully cover — partial delegation with CPU fallback is NNAPI's job, see
:mod:`repro.frameworks.nnapi`).
"""

from repro.android.thread import Sleep, WaitFor, Work
from repro.frameworks.support import supports_op
from repro.models import dtype_bytes

#: DSP-side graph preparation per op at delegate init.
_DSP_GRAPH_PREP_PER_OP_US = 9.0
#: CPU-side delegate graph construction per op.
_DELEGATE_BUILD_PER_OP_US = 4.0


class GpuDelegate:
    """OpenGL/OpenCL delegate: shader compile at init, command queues at run."""

    name = "gpu"
    backend = "gpu-delegate"

    def __init__(self, kernel, precision="fp16"):
        self.kernel = kernel
        self.gpu = kernel.soc.gpu
        if precision not in ("fp32", "fp16"):
            raise ValueError(f"GPU precision must be fp16/fp32, not {precision!r}")
        self.precision = precision

    def covers(self, model):
        if model.dtype == "int8":
            return False
        return all(
            supports_op(self.backend, op, model.dtype) for op in model.ops
        )

    def init(self, model):
        """Shader compilation: CPU-side codegen plus GPU-side build."""
        build_us = model.op_count * _DELEGATE_BUILD_PER_OP_US
        yield Work(self.gpu.init_time_us * 0.4 + build_us, label="gpu:compile")
        yield Sleep(self.gpu.init_time_us * 0.6)

    def invoke(self, model):
        """Upload inputs, run the command buffer, read back outputs."""
        memory = self.kernel.soc.memory
        dtype = "fp16" if self.precision == "fp16" else model.dtype
        yield Work(
            memory.dram_copy_us(model.input_bytes), label="gpu:upload"
        )
        # with-block instead of try/finally: the old finally began only
        # after the queue wait, so an exception thrown at the WaitFor
        # leaked the GPU grant.
        with self.gpu.resource.request() as request:
            yield WaitFor(request)
            compute_us = self.gpu.graph_time_us(model.ops, dtype)
            span = None
            if self.kernel.sim.trace is not None:
                span = self.kernel.sim.trace.begin("gpu", model.name)
            yield Sleep(compute_us)
            if span is not None:
                self.kernel.sim.trace.end(span)
            self.kernel.soc.energy.add_gpu_busy(compute_us)
        yield Work(
            memory.dram_copy_us(model.output_bytes), label="gpu:readback"
        )
        return compute_us


class HexagonDelegate:
    """The open-source TFLite Hexagon delegate (int8 graphs on the DSP)."""

    name = "hexagon"
    backend = "hexagon-delegate"

    def __init__(self, kernel, channel=None):
        self.kernel = kernel
        self.dsp = kernel.soc.dsp
        if channel is None:
            from repro.android.fastrpc import FastRpcChannel

            channel = FastRpcChannel(kernel, process_id=kernel.allocate_pid())
        self.channel = channel

    def covers(self, model):
        if model.dtype != "int8":
            return False
        return all(supports_op(self.backend, op, "int8") for op in model.ops)

    def init(self, model):
        """Open the FastRPC session and build the graph on the DSP."""
        yield Work(
            model.op_count * _DELEGATE_BUILD_PER_OP_US, label="hexagon:build"
        )
        yield from self.channel.open_session()
        yield Sleep(model.op_count * _DSP_GRAPH_PREP_PER_OP_US)

    def invoke(self, model):
        compute_us = self.dsp.graph_time_us(model.ops, "int8")
        input_bytes = model.input_spec.numel * dtype_bytes("int8")
        yield from self.channel.invoke(
            input_bytes, model.output_bytes, compute_us, label=model.name
        )
        return compute_us


#: Effective speedup of SNPE's hand-tuned HVX kernels over the
#: open-source delegate's (vendor software is "highly tuned", §IV-B).
SNPE_DSP_TUNING = 1.3
