"""TFLite hardware delegates: GPU and Hexagon.

A delegate takes the whole graph (these two refuse models they cannot
fully cover — partial delegation with CPU fallback is NNAPI's job, see
:mod:`repro.frameworks.nnapi`).
"""

from repro.android.fastrpc import FastRpcChannel
from repro.android.thread import Sleep, Work
from repro.frameworks.support import supports_op
from repro.frameworks.tflite import compile_graph_on_gpu, run_graph_on_gpu
from repro.models import dtype_bytes

#: DSP-side graph preparation per op at delegate init.
_DSP_GRAPH_PREP_PER_OP_US = 9.0
#: CPU-side delegate graph construction per op.
_DELEGATE_BUILD_PER_OP_US = 4.0


class GpuDelegate:
    """OpenGL/OpenCL delegate: shader compile at init, command queues at run."""

    name = "gpu"
    backend = "gpu-delegate"
    #: Every graph runs at the delegate's default fp16 precision.
    precision = "fp16"

    def __init__(self, kernel):
        self.kernel = kernel

    def covers(self, model):
        if model.dtype == "int8":
            return False
        return all(
            supports_op(self.backend, op, model.dtype) for op in model.ops
        )

    def init(self, model):
        """Shader compilation: CPU-side codegen plus GPU-side build."""
        yield from compile_graph_on_gpu(
            self.kernel, model.op_count * _DELEGATE_BUILD_PER_OP_US,
            "gpu:compile",
        )

    def invoke(self, model):
        """Upload inputs, run the command buffer, read back outputs."""
        yield from run_graph_on_gpu(
            self.kernel, model.name, model.ops, self.precision,
            model.input_bytes, model.output_bytes, "gpu",
        )


class HexagonDelegate:
    """The open-source TFLite Hexagon delegate (int8 graphs on the DSP)."""

    name = "hexagon"
    backend = "hexagon-delegate"

    def __init__(self, kernel):
        self.kernel = kernel
        self.dsp = kernel.soc.dsp
        self.channel = FastRpcChannel(kernel, process_id=kernel.allocate_pid())

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


#: Effective speedup of SNPE's hand-tuned HVX kernels over the
#: open-source delegate's (vendor software is "highly tuned", §IV-B).
SNPE_DSP_TUNING = 1.3
