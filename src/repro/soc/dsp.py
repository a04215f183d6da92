"""Hexagon-class DSP ("NPU") model.

The DSP is *loosely coupled*: it has its own memory subsystem (VTCM) and
is reached from the CPU over FastRPC through the kernel driver
(:mod:`repro.android.fastrpc`). It executes quantized graphs on HVX
vector units at high throughput but has only scalar floating-point
support, which is why frameworks refuse (or should refuse) to delegate
fp32 graphs to it.

The device is a capacity-1 resource: one resident model executes at a
time, so concurrent clients queue — the mechanism behind the linear
latency growth in the paper's Fig. 9.
"""

from repro.sim import units
from repro.sim import Resource
from repro.soc import params
from repro.soc.cost_tables import graph_total_us


_RATE_BY_KIND = {
    "conv": params.DSP_CONV_GOPS,
    "depthwise": params.DSP_DEPTHWISE_GOPS,
    "fc": params.DSP_FC_GOPS,
    "elementwise": params.DSP_ELEMENTWISE_GOPS,
}


class Dsp:
    """A Hexagon-class DSP with HVX vector units."""

    def __init__(self, sim, name, scale=1.0, coupling="loose"):
        self.sim = sim
        self.name = name
        self.scale = scale
        #: Integration style (see paper §II-D). Loosely coupled devices
        #: pay cache flushes and kernel round trips per invocation; a
        #: tightly coupled device would share the CPU cache hierarchy.
        self.coupling = coupling
        self.resource = Resource(sim, capacity=1, name=f"dsp:{name}")
        #: Process handles mapped via FastRPC session setup.
        self.mapped_processes = set()

    def op_time_us(self, op, dtype):
        if dtype == "int8":
            rate_gops = _RATE_BY_KIND[op.compute_class] * self.scale
            compute_us = op.flops / units.per_us_rate(rate_gops)
        else:
            # Scalar floating point crawl; frameworks should never pick this.
            compute_us = op.flops / units.per_us_rate(
                params.DSP_SCALAR_FP_GFLOPS
            )
        return compute_us + params.DSP_OP_DISPATCH_US

    def graph_time_us(self, ops, dtype):
        """Memoized per ``(scale, dtype, ops)``; bit-equal to the
        inline sum (see :mod:`repro.soc.cost_tables`)."""
        return graph_total_us(
            ("dsp", self.scale, dtype), ops, self.op_time_us, dtype
        )

    def map_process(self, process_id):
        """Record a FastRPC process mapping; True when newly created."""
        if process_id in self.mapped_processes:
            return False
        self.mapped_processes.add(process_id)
        return True

    def unmap_process(self, process_id):
        self.mapped_processes.discard(process_id)

    def restart(self):
        """Subsystem restart (SSR): drop every process mapping.

        Models the Hexagon watchdog rebooting the DSP: all FastRPC
        sessions die at once and each client must remap (paying the
        session-open cost again) before its next call. Returns the
        number of mappings dropped.
        """
        dropped = len(self.mapped_processes)
        self.mapped_processes.clear()
        return dropped
