"""One-call harness: configure, simulate, return run records.

Experiments and examples describe *what* to measure with a
:class:`PipelineConfig`; the harness builds the simulator, SoC, kernel,
packaging, and optional background load, applies the paper's cooldown
protocol, runs it, and hands back the :class:`RunCollection`.
:func:`rig` is the one place a simulated device is built and freed,
and :func:`drive` the one prepare-then-invoke loop over a bare session.
"""

from contextlib import contextmanager
from dataclasses import dataclass

from repro.android import Kernel
from repro.apps.background import start_background_inferences
from repro.apps.packaging import AndroidApp, BenchmarkApp, BenchmarkCli
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


@contextmanager
def rig(seed=0, soc="sd845", governor="schedutil", trace=False,
        enable_thermal=False, ambient_celsius=None, dsp_coupling="loose"):
    """A simulated device ``(sim, soc, kernel)``, freed when the block exits.

    DVFS loops run only under ``schedutil``; the other governors hold
    their clusters at a fixed operating point. ``ambient_celsius``
    starts the die warm instead of at its idle temperature.

    On exit, also when the block raises, each layer breaks the
    references it owns, so nothing is left for the cyclic collector:
    the kernel closes its threads first (a closing body can release a
    resource and so schedule a grant, and a body suspended inside a
    probe ends that span), then the simulator drops its queued events
    and its trace recorder's back-reference, and the SoC its core
    back-references. Read the device inside the block: it cannot run
    afterwards, and a trace query that defaults to the current time
    raises.
    """
    sim = Simulator(seed=seed, trace=trace)
    device = make_soc(
        sim, soc, governor_mode=governor, dsp_coupling=dsp_coupling
    )
    if ambient_celsius is not None:
        device.thermal.temperature = float(ambient_celsius)
        device.thermal._apply_throttle()
    kernel = Kernel(
        sim, device, enable_dvfs=(governor == "schedutil"),
        enable_thermal=enable_thermal,
    )
    try:
        yield sim, device, kernel
    finally:
        kernel.close()
        sim.close()
        device.close()


def drive(kernel, session, invokes, name="driver"):
    """Prepare ``session``, invoke it ``invokes`` times on a big core.

    Runs the simulation until the driver thread finishes and returns
    the per-invocation durations.
    """
    durations = []

    def body():
        yield from session.prepare()
        for _ in range(invokes):
            duration = yield from session.invoke()
            durations.append(duration)

    thread = kernel.spawn_on_big(body(), name=name)
    kernel.sim.run(until=thread.done)
    return durations


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


@contextmanager
def simulate_pipeline(config):
    """Simulate ``config`` in a :func:`rig`; yields ``(records, packaging)``.

    Starts the packaging and any background load, then runs the
    iterations. The device is freed when the block exits, so read it
    there: ``packaging.kernel`` is the kernel, and ``kernel.sim`` and
    ``kernel.soc`` the rest of the device.
    """
    with rig(
        seed=config.seed, soc=config.soc, governor=config.governor,
        trace=config.trace, ambient_celsius=config.ambient_celsius,
    ) as (_sim, _soc, kernel):
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
        records = packaging.execute(
            config.runs, thread_name=f"{config.context}:{config.model_key}"
        )
        yield records, packaging


def run_pipeline(config):
    """Simulate one configuration end to end; returns a RunCollection.

    Follows the paper's measurement protocol: the SoC starts at its idle
    temperature (§III-D) and the warm-up iteration is kept in the record
    set — analyses drop it explicitly where the paper does.
    """
    with simulate_pipeline(config) as (records, _packaging):
        return records
