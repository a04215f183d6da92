"""One-call harness: configure, simulate, return run records.

Experiments and examples describe *what* to measure with a
:class:`PipelineConfig`; the harness builds the simulator, SoC, kernel,
packaging, and optional background load, applies the paper's cooldown
protocol, runs it, and hands back the :class:`RunCollection`.
"""

from dataclasses import dataclass, field

from repro.android import Kernel
from repro.apps.android_app import AndroidApp
from repro.apps.background import start_background_inferences
from repro.apps.benchmark_cli import BenchmarkApp, BenchmarkCli
from repro.sim import Simulator
from repro.soc import make_soc

#: Packaging names (paper Fig. 3).
CONTEXTS = ("cli", "bench_app", "app")


@dataclass
class PipelineConfig:
    """Everything needed to reproduce one measured configuration."""

    model_key: str = "mobilenet_v1"
    dtype: str = "fp32"
    context: str = "app"
    target: str = "nnapi"
    threads: int = 4
    runs: int = 20
    soc: str = "sd845"
    seed: int = 0
    stdlib: str = "libc++"
    governor: str = "schedutil"
    preference: str = None
    source_hw: tuple = (480, 640)
    fps: float = 30.0
    trace: bool = False
    #: Die temperature (°C) at session start; ``None`` keeps the SoC's
    #: idle temperature (the paper's cooled-down protocol, §III-D).
    #: Fleet simulation uses this to model devices that start warm.
    ambient_celsius: float = None
    #: Probability each FastRPC call is hit by an injected fault (the
    #: chaos experiment's knob). 0.0 disables injection entirely; the
    #: plan is seeded from ``seed`` so runs stay deterministic.
    fault_rate: float = 0.0
    #: (count, target) of background inference jobs, e.g. (4, "nnapi").
    background: tuple = None
    background_model: str = "mobilenet_v1"
    background_dtype: str = "int8"
    background_threads: int = 1
    #: Extra keyword arguments forwarded to the packaging class.
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.context not in CONTEXTS:
            raise ValueError(
                f"unknown context {self.context!r}; known: {CONTEXTS}"
            )


def config_from_dict(payload):
    """Build a :class:`PipelineConfig` from a plain dict (JSON-friendly).

    Tuple-typed fields accept lists; unknown keys raise so config files
    fail loudly rather than silently ignoring typos.
    """
    import dataclasses

    known = {field.name for field in dataclasses.fields(PipelineConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cleaned = dict(payload)
    for key in ("source_hw", "background"):
        if key in cleaned and cleaned[key] is not None:
            cleaned[key] = tuple(cleaned[key])
    return PipelineConfig(**cleaned)


def config_to_dict(config):
    """Plain-dict form of a config, for JSON round-tripping."""
    import dataclasses

    return dataclasses.asdict(config)


def build_rig(config):
    """(sim, soc, kernel) for a config."""
    sim = Simulator(seed=config.seed, trace=config.trace)
    soc = make_soc(sim, config.soc, governor_mode=config.governor)
    if config.ambient_celsius is not None:
        soc.thermal.temperature = float(config.ambient_celsius)
        soc.thermal._apply_throttle()
    kernel = Kernel(sim, soc, enable_dvfs=(config.governor == "schedutil"))
    return sim, soc, kernel


def build_packaging(kernel, config):
    """Instantiate the packaging object for a config."""
    from repro.faults import FaultPlan

    faults = (
        FaultPlan.sampled(rate=config.fault_rate, seed=config.seed)
        if config.fault_rate
        else None
    )
    common = dict(
        dtype=config.dtype,
        target=config.target,
        threads=config.threads,
        preference=config.preference,
        faults=faults,
        **config.extra,
    )
    if config.context == "cli":
        return BenchmarkCli(
            kernel, config.model_key, stdlib=config.stdlib, **common
        )
    if config.context == "bench_app":
        return BenchmarkApp(
            kernel, config.model_key, stdlib=config.stdlib, **common
        )
    return AndroidApp(
        kernel,
        config.model_key,
        source_hw=config.source_hw,
        fps=config.fps,
        **common,
    )


def run_pipeline(config):
    """Simulate one configuration end to end; returns a RunCollection.

    Follows the paper's measurement protocol: the SoC starts at its idle
    temperature (§III-D) and the warm-up iteration is kept in the record
    set — analyses drop it explicitly where the paper does.
    """
    records = run_pipeline_with_rig(config)[0]
    records.runs = list(records.runs)  # defensive copy before sim teardown
    return records


def run_pipeline_with_rig(config):
    """Like :func:`run_pipeline` but also returns (sim, soc, kernel, packaging).

    For experiments that need the trace (Fig. 6) or hardware counters.
    """
    sim, soc, kernel = build_rig(config)
    packaging = build_packaging(kernel, config)
    if config.background is not None:
        count, bg_target = config.background
        start_background_inferences(
            kernel,
            count,
            target=bg_target,
            model_key=config.background_model,
            dtype=config.background_dtype,
            threads=config.background_threads,
        )
    thread = kernel.spawn(
        packaging.body(config.runs),
        name=f"{config.context}:{config.model_key}",
        process=packaging.process,
    )
    sim.run(until=thread.done)
    return packaging.records, sim, soc, kernel, packaging
