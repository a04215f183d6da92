"""ML delegation frameworks (paper §II-C/D, §IV-B).

* :class:`TfliteInterpreter` — the interpreter with tuned CPU kernels
  and whole-graph GPU/Hexagon delegates.
* :class:`NnapiSession` — the OS-level runtime: compilation,
  partitioning against vendor driver op-support matrices, and CPU
  *reference-kernel* fallback.
* :class:`SnpeSession` — the vendor runtime with complete, tuned DSP
  support.
"""

from repro.frameworks.base import (
    EXECUTION_PREFERENCES,
    FAST_SINGLE_ANSWER,
    LOW_POWER,
    SUSTAINED_SPEED,
    InferenceSession,
    InferenceStats,
    Partition,
    UnsupportedModelError,
)
from repro.frameworks.cpu_kernels import (
    IMPL_REFERENCE,
    IMPL_TUNED,
    graph_cpu_work_us,
    op_cpu_work_us,
    parallel_efficiency,
)
from repro.frameworks.delegates import GpuDelegate, HexagonDelegate
from repro.frameworks.nnapi import NnapiSession
from repro.frameworks.snpe import SnpeSession
from repro.frameworks.support import supports_op
from repro.frameworks.tflite import TfliteInterpreter, run_graph_on_cpu

__all__ = [
    "EXECUTION_PREFERENCES",
    "FAST_SINGLE_ANSWER",
    "LOW_POWER",
    "SUSTAINED_SPEED",
    "InferenceSession",
    "InferenceStats",
    "Partition",
    "UnsupportedModelError",
    "IMPL_REFERENCE",
    "IMPL_TUNED",
    "graph_cpu_work_us",
    "op_cpu_work_us",
    "parallel_efficiency",
    "GpuDelegate",
    "HexagonDelegate",
    "NnapiSession",
    "SnpeSession",
    "supports_op",
    "TfliteInterpreter",
    "run_graph_on_cpu",
]
