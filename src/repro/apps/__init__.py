"""Application-level pipelines (paper §III-B, Fig. 3).

Three packagings of the same model, mirroring the paper's comparison:

* :class:`BenchmarkCli` — the TFLite command-line benchmark utility:
  random input tensors, native pre-processing, no UI, quiet system.
* :class:`BenchmarkApp` — the Android benchmark app: the same loop
  inside an app process with a UI and the ambient daemon load.
* :class:`AndroidApp` — a real application: camera capture, managed-
  code pre-processing, inference, post-processing, UI rendering, GC.

Plus background inference jobs for the multi-tenancy experiments
(Figs. 9/10), an MLPerf-style loadgen that runs MLPerf Mobile's two
scenarios, single-stream and offline (:mod:`repro.apps.loadgen`), the
open-loop arrival processes that only the service tier draws
(:mod:`repro.apps.arrivals`), and a one-call harness used by
experiments and examples.
"""

from repro.apps.arrivals import (
    ARRIVAL_KINDS,
    DiurnalArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.apps.background import start_background_inferences
from repro.apps.harness import PipelineConfig, run_pipeline
from repro.apps.packaging import AndroidApp, BenchmarkApp, BenchmarkCli
from repro.apps.sessions import make_session

__all__ = [
    "ARRIVAL_KINDS",
    "AndroidApp",
    "start_background_inferences",
    "BenchmarkApp",
    "BenchmarkCli",
    "DiurnalArrivals",
    "PipelineConfig",
    "PoissonArrivals",
    "make_arrivals",
    "run_pipeline",
    "make_session",
]
