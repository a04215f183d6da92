"""Adreno-class mobile GPU model.

The GPU executes delegated op graphs one op at a time from a command
queue; each op pays a dispatch overhead on top of its roofline time.
Exclusive use is modelled with a capacity-1 resource — concurrent GL
contexts time-slice in reality, but ML delegates serialize command
buffers, which is the behaviour relevant to the paper.
"""

from repro.sim import units
from repro.sim import Resource
from repro.soc import params
from repro.soc.cost_tables import graph_total_us


#: Map from op compute class to effective fp32 GFLOP/s on the reference GPU.
_RATE_BY_KIND = {
    "conv": params.GPU_CONV_GFLOPS,
    "depthwise": params.GPU_DEPTHWISE_GFLOPS,
    "fc": params.GPU_FC_GFLOPS,
    "elementwise": params.GPU_ELEMENTWISE_GFLOPS,
}


class Gpu:
    """A mobile GPU as seen by ML delegation frameworks."""

    def __init__(self, sim, name, scale=1.0):
        self.sim = sim
        self.name = name
        self.scale = scale
        self.resource = Resource(sim, capacity=1, name=f"gpu:{name}")

    def op_time_us(self, op, dtype):
        """Roofline time plus dispatch overhead for one op."""
        rate_gflops = _RATE_BY_KIND[op.compute_class] * self.scale
        if dtype == "fp16":
            rate_gflops *= params.GPU_FP16_SPEEDUP
        elif dtype == "int8":
            rate_gflops *= params.GPU_INT8_SPEEDUP
        compute_us = op.flops / units.per_us_rate(rate_gflops)
        return compute_us + params.GPU_OP_DISPATCH_US

    def graph_time_us(self, ops, dtype):
        """Total time to execute a delegated partition.

        Memoized per ``(scale, dtype, ops)`` — two GPUs with the same
        scale price identically, so the key is the pricing parameters,
        not the instance (see :mod:`repro.soc.cost_tables`).
        """
        return graph_total_us(
            ("gpu", self.scale, dtype), ops, self.op_time_us, dtype
        )

    @property
    def init_time_us(self):
        """One-time delegate initialization (context + shader compile)."""
        return params.GPU_DELEGATE_INIT_US
