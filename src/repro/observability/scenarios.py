"""Named trace scenarios for ``python -m repro trace <scenario>``.

A scenario is a ready-made :class:`~repro.apps.harness.PipelineConfig`
with tracing forced on — the configurations the paper profiles (the
Fig. 6 trio), the README quickstart, and a multi-tenant variant. They
give the trace CLI, docs, and tests one stable vocabulary.
"""

from collections import namedtuple
from contextlib import contextmanager

from repro.apps.harness import PipelineConfig, simulate_pipeline

#: Scenario name -> PipelineConfig keyword arguments.
SCENARIOS = {
    # The README quickstart: a real camera app classifying frames
    # through NNAPI on a Pixel-3-class SoC.
    "quickstart": dict(
        model_key="mobilenet_v1", dtype="int8", context="app",
        target="nnapi", runs=10,
    ),
    # The paper's Fig. 6 trio: quantized EfficientNet-Lite0 under the
    # three execution modes profiled with the Snapdragon Profiler.
    "fig6-cpu": dict(
        model_key="efficientnet_lite0", dtype="int8", context="cli",
        target="cpu", runs=6,
    ),
    "fig6-hexagon": dict(
        model_key="efficientnet_lite0", dtype="int8", context="cli",
        target="hexagon", runs=6,
    ),
    "fig6-nnapi": dict(
        model_key="efficientnet_lite0", dtype="int8", context="cli",
        target="nnapi", runs=6,
    ),
    # The CLI benchmark packaging on tuned CPU kernels (Fig. 3 left).
    "benchmark-cpu": dict(
        model_key="mobilenet_v1", dtype="int8", context="cli",
        target="cpu", runs=8,
    ),
    # Fig. 9 shape: an app sharing the DSP with background inferences.
    "multitenant": dict(
        model_key="mobilenet_v1", dtype="int8", context="app",
        target="nnapi", runs=8, background=(2, "nnapi"),
    ),
    # The quickstart app under injected FastRPC faults: retry spans,
    # fault instants, and runtime CPU fallbacks on the trace
    # (docs/faults.md).
    "chaos": dict(
        model_key="mobilenet_v1", dtype="int8", context="app",
        target="nnapi", runs=10, fault_rate=0.3, seed=7,
    ),
}

#: What a recorded scenario hands back: its config and the device;
#: ``sim.trace`` is the populated :class:`~repro.sim.trace.TraceRecorder`.
TraceSession = namedtuple("TraceSession", "config sim soc")


def scenario_config(name, runs=None, seed=None, soc=None):
    """The :class:`PipelineConfig` for a scenario, tracing enabled."""
    try:
        kwargs = dict(SCENARIOS[name])
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None
    if runs is not None:
        kwargs["runs"] = runs
    if seed is not None:
        kwargs["seed"] = seed
    if soc is not None:
        kwargs["soc"] = soc
    kwargs["trace"] = True
    return PipelineConfig(**kwargs)


@contextmanager
def record_trace(name, runs=None, seed=None, soc=None):
    """Simulate a scenario with tracing on; yields a :class:`TraceSession`.

    The device is freed when the block exits, so read the trace inside
    it: freeing closes the thread bodies still running, and a body
    suspended inside a probe ends that span, tagged ``GeneratorExit``.
    """
    config = scenario_config(name, runs=runs, seed=seed, soc=soc)
    with simulate_pipeline(config) as (_records, packaging):
        kernel = packaging.kernel
        yield TraceSession(config, kernel.sim, kernel.soc)
