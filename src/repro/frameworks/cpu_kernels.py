"""CPU kernel cost model.

Two kernel tiers matter for the paper's Fig. 5:

* ``tuned`` — TFLite's NEON kernels (ruy/XNNPACK era): the normal CPU
  path; int8 runs ~1.5x faster than fp32.
* ``reference`` — the portable fallback kernels the NNAPI runtime uses
  when a driver rejects an op: scalar loops with per-element
  requantization, several times slower than tuned fp32 and single-
  threaded by construction.
"""

from repro.sim import units
from repro.soc import params
from repro.soc.cost_tables import graph_total_us

IMPL_TUNED = "tuned"
IMPL_REFERENCE = "reference"

_RATE_BY_KIND = {
    "conv": params.CPU_CONV_GFLOPS,
    "depthwise": params.CPU_DEPTHWISE_GFLOPS,
    "fc": params.CPU_FC_GFLOPS,
    "elementwise": params.CPU_ELEMENTWISE_GFLOPS,
}

#: Reference (portable) kernels relative to tuned fp32.
_REFERENCE_FP_SLOWDOWN = 2.0


def op_cpu_work_us(op, dtype, impl=IMPL_TUNED):
    """Reference-us of CPU work for one op (single core, max freq)."""
    rate_gflops = _RATE_BY_KIND[op.compute_class]
    if impl == IMPL_TUNED:
        if dtype == "int8":
            rate_gflops *= params.CPU_INT8_SPEEDUP
        elif dtype == "fp16":
            # CPU fp16 is emulated (converted to fp32): no gain.
            rate_gflops *= 1.0
    elif impl == IMPL_REFERENCE:
        if dtype == "int8":
            rate_gflops /= params.CPU_REFERENCE_INT8_SLOWDOWN
        else:
            rate_gflops /= _REFERENCE_FP_SLOWDOWN
    else:
        raise ValueError(f"unknown CPU kernel impl {impl!r}")
    compute_us = op.flops / units.per_us_rate(rate_gflops)
    return compute_us + params.CPU_OP_DISPATCH_US


def graph_cpu_work_us(ops, dtype, impl=IMPL_TUNED):
    """Total single-core reference-us for an op list.

    Memoized per ``(dtype, impl, ops)`` — see
    :mod:`repro.soc.cost_tables`. The cached total is the same
    left-fold sum of the same per-op values, so results are bit-equal
    to pricing the graph inline on every call.
    """
    return graph_total_us(
        ("cpu", dtype, impl), ops, op_cpu_work_us, dtype, impl
    )


def parallel_efficiency(threads):
    """Scaling efficiency of the tuned kernels across threads."""
    table = params.CPU_PARALLEL_EFFICIENCY
    if threads in table:
        return table[threads]
    known = sorted(table)
    if threads <= known[0]:
        return table[known[0]]
    if threads >= known[-1]:
        return table[known[-1]]
    lower = max(k for k in known if k <= threads)
    upper = min(k for k in known if k >= threads)
    if lower == upper:
        return table[lower]
    fraction = (threads - lower) / (upper - lower)
    return table[lower] + fraction * (table[upper] - table[lower])
