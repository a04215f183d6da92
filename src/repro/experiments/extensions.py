"""Extension experiments beyond the paper's figures.

These quantify claims the paper makes in prose but does not plot:

* ``energy`` — §I: "AI processing on general-purpose mobile processors
  is inefficient in terms of energy and power" — joules per inference
  across placements.
* ``preferences`` — §II-D: NNAPI execution preferences
  (FAST_SINGLE_ANSWER vs LOW_POWER) trade latency for energy.
* ``thermal`` — §III-D: what happens *without* the authors' cooldown
  protocol — sustained load heats the die past the throttle trip point
  and latency drifts upward run over run.
* ``soc_sweep`` — §III-C: "trends are representative across the other
  chipsets" — the same app breakdown on all four Table-II platforms.
* ``streaming`` — end-user experience: achieved frame rate and dropped
  camera frames per model.
"""

from repro.apps import PipelineConfig, run_pipeline
from repro.apps.harness import drive, rig, simulate_pipeline
from repro.apps.sessions import make_session
from repro.core import breakdown
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim, cell, ratio
from repro.frameworks import FAST_SINGLE_ANSWER, LOW_POWER, SUSTAINED_SPEED
from repro.models import load_model
from repro.sim import units


ENERGY_CLAIMS = (
    Claim("cpu_over_dsp_mj", "CPU inefficient", "> 8",
          ratio("Placement", "mJ/inf", "cpu x4 [int8]", "hexagon [int8]"),
          "general-purpose cores are energy-inefficient for AI"),
    Claim("snpe_over_hexagon_mj", "n/a", "<= 1",
          ratio("Placement", "mJ/inf", "snpe-dsp [int8]", "hexagon [int8]"),
          "the vendor runtime spends no more energy than the delegate"),
    Claim("cpu_fp32_over_int8_mj", "n/a", "> 1",
          ratio("Placement", "mJ/inf", "cpu x4 [fp32]", "cpu x4 [int8]"),
          "fp32 CPU inference costs more energy than int8"),
    Claim("cpu_over_dsp_edp", "n/a", "> 20",
          ratio("Placement", "EDP (mJ*ms)", "cpu x4 [int8]", "hexagon [int8]"),
          "the DSP wins on energy and latency together"),
)


@experiment("energy", claims=ENERGY_CLAIMS, bench={"invokes": 10})
def run_energy(seed=0, invokes=20):
    """Joules per inference across placements.

    The DSP should beat the CPU by roughly an order of magnitude on
    energy for quantized models — the reason NPUs exist at all.
    """
    configurations = (
        ("cpu x4 [int8]", "int8", "cpu"),
        ("cpu x1 [int8]", "int8", "cpu1"),
        ("hexagon [int8]", "int8", "hexagon"),
        ("snpe-dsp [int8]", "int8", "snpe-dsp"),
        ("gpu [fp16]", "fp32", "gpu"),
        ("cpu x4 [fp32]", "fp32", "cpu"),
    )
    headers = (
        "Placement", "ms/inf", "mJ/inf", "mJ cpu", "mJ accel", "mJ dram",
        "EDP (mJ*ms)",
    )
    rows = []
    for label, dtype, target in configurations:
        with rig(seed=seed) as (_sim, soc, kernel):
            model = load_model("mobilenet_v1", dtype)
            session = make_session(kernel, model, target=target)
            drive(kernel, session, 2)  # warm up + settle
            snapshot = soc.energy.snapshot()
            durations = drive(kernel, session, invokes)
            delta = soc.energy.since(snapshot)
        mean_ms = units.to_ms(sum(durations) / len(durations))
        mj_per_inf = units.to_mj(delta["total_uj"] / invokes)
        rows.append(
            (
                label,
                mean_ms,
                mj_per_inf,
                units.to_mj(delta["cpu_uj"] / invokes),
                units.to_mj((delta["gpu_uj"] + delta["dsp_uj"]) / invokes),
                units.to_mj(delta["dram_uj"] / invokes),
                mj_per_inf * mean_ms,
            )
        )
    return ExperimentResult(
        experiment_id="energy",
        title="mobilenet_v1: energy per inference by placement",
        headers=headers,
        rows=rows,
        notes=[
            "paper §I motivation: general-purpose cores are energy-"
            "inefficient for AI; the DSP wins on both axes",
        ],
    )


PREFERENCES_CLAIMS = (
    Claim("low_power_over_fast_ms", "slower", "> 1",
          ratio("Preference", "ms/inf", LOW_POWER, FAST_SINGLE_ANSWER),
          "LOW_POWER runs CPU partitions on the little cluster: slower..."),
    Claim("low_power_over_fast_mj", "cheaper", "< 1",
          ratio("Preference", "mJ/inf", LOW_POWER, FAST_SINGLE_ANSWER),
          "...and cheaper in energy"),
    Claim("sustained_over_fast_ms", "n/a", ">= 1",
          ratio("Preference", "ms/inf", SUSTAINED_SPEED, FAST_SINGLE_ANSWER),
          "SUSTAINED_SPEED is no faster than FAST_SINGLE_ANSWER..."),
    Claim("sustained_over_low_power_ms", "n/a", "<= 1",
          ratio("Preference", "ms/inf", SUSTAINED_SPEED, LOW_POWER),
          "...and no slower than LOW_POWER"),
)


@experiment("preferences", claims=PREFERENCES_CLAIMS, bench={"invokes": 5})
def run_preferences(seed=0, invokes=8):
    """NNAPI execution preference: latency vs energy.

    Uses a partially-offloaded model so the CPU partitions (whose
    placement the preference steers) actually matter.
    """
    headers = ("Preference", "ms/inf", "mJ/inf")
    rows = []
    for preference in (FAST_SINGLE_ANSWER, SUSTAINED_SPEED, LOW_POWER):
        with rig(seed=seed) as (_sim, soc, kernel):
            model = load_model("inception_v3", "fp32")
            session = make_session(
                kernel, model, target="nnapi", preference=preference
            )
            drive(kernel, session, 1)
            snapshot = soc.energy.snapshot()
            durations = drive(kernel, session, invokes)
            delta = soc.energy.since(snapshot)
        rows.append(
            (
                preference,
                units.to_ms(sum(durations) / len(durations)),
                units.to_mj(delta["total_uj"] / invokes),
            )
        )
    return ExperimentResult(
        experiment_id="preferences",
        title="inception_v3 [fp32] via NNAPI: execution preferences",
        headers=headers,
        rows=rows,
        notes=["LOW_POWER runs CPU partitions on the little cluster: "
               "slower, cheaper"],
    )


def _tail_over_head(result):
    """Mean of the last ten invocations over the first ten."""
    latency = result.series["latency_ms"]
    return sum(latency[-10:]) / sum(latency[:10])


THERMAL_CLAIMS = (
    Claim("throttle_slowdown", "drifts up", "> 1.2",
          cell("Metric", "value", "throttle-induced slowdown"),
          "without cooldown, sustained load throttles the CPU"),
    Claim("tail_over_head", "drifts up", "> 1", _tail_over_head,
          "latency trends upward over the sustained run"),
    Claim("is_throttling", "throttling", "= yes",
          cell("Metric", "value", "is throttling"),
          "the die ends past the throttle trip point"),
    Claim("final_temperature_c", "past ~33 C", "> 70",
          cell("Metric", "value", "final die temperature C"),
          "the die heats well above the ~33 C cooldown target"),
    Claim("cooldown_s", "cooldown needed", "> 1",
          cell("Metric", "value", "cooldown needed (s)"),
          "cooling back down takes real time between runs"),
)


@experiment("thermal", claims=THERMAL_CLAIMS, bench={"invokes": 80})
def run_thermal(seed=0, invokes=120):
    """Sustained load without the paper's cooldown protocol.

    A shortened thermal time constant compresses minutes of sustained
    load into a tractable simulation; the dynamics are unchanged.
    """
    with rig(seed=seed, enable_thermal=True) as (_sim, soc, kernel):
        soc.thermal.time_constant_s = 6.0
        model = load_model("inception_v3", "fp32")
        session = make_session(kernel, model, target="cpu")
        durations = drive(kernel, session, invokes)
        warm = durations[1:]
        head = warm[: len(warm) // 5]
        tail = warm[-len(warm) // 5:]
        head_ms = units.to_ms(sum(head) / len(head))
        tail_ms = units.to_ms(sum(tail) / len(tail))
        cooldown_us = soc.thermal.cooldown_time_us()
        headers = (
            "Metric", "value",
        )
        rows = [
            ("first-quintile mean ms", head_ms),
            ("last-quintile mean ms", tail_ms),
            ("throttle-induced slowdown", tail_ms / head_ms),
            ("final die temperature C", soc.thermal.temperature),
            ("is throttling", soc.thermal.is_throttling),
            ("cooldown needed (s)", cooldown_us / 1e6),
        ]
    return ExperimentResult(
        experiment_id="thermal",
        title="inception_v3 [fp32] sustained CPU load: thermal drift",
        headers=headers,
        rows=rows,
        series={"latency_ms": [units.to_ms(d) for d in warm]},
        notes=[
            "paper §III-D cools to ~33C before each run precisely to "
            "avoid this drift contaminating measurements",
        ],
    )


SOCS = ("sd835", "sd845", "sd855", "sd865")


def _inference_shrinks(result):
    inference = result.lookup("SoC", "inference ms")
    ordered = [inference[soc] for soc in SOCS]
    return all(a > b for a, b in zip(ordered, ordered[1:]))


SOC_SWEEP_CLAIMS = (
    Claim("inference_shrinks", "trends hold", "= yes", _inference_shrinks,
          "each newer DSP shrinks inference"),
    Claim("sd865_over_sd835_tax", "trends hold", "> 1",
          ratio("SoC", "AI tax fraction", "sd865", "sd835"),
          "the AI-tax fraction grows with newer SoCs"),
    Claim("sd865_tax", "trends hold", "> 0.8",
          cell("SoC", "AI tax fraction", "sd865"),
          "on the newest SoC the AI tax is most of the end-to-end time"),
)


@experiment("soc_sweep", claims=SOC_SWEEP_CLAIMS, bench={"runs": 6})
def run_soc_sweep(runs=8, seed=0):
    """The Fig.-4 app breakdown across all four Table-II platforms."""
    headers = (
        "SoC", "capture ms", "pre ms", "inference ms", "total ms",
        "AI tax fraction",
    )
    rows = []
    series = {}
    for soc_key in SOCS:
        config = PipelineConfig(
            model_key="mobilenet_v1", dtype="int8", context="app",
            target="nnapi", runs=runs, seed=seed, soc=soc_key,
        )
        b = breakdown(run_pipeline(config))
        rows.append(
            (
                soc_key, b.capture_ms, b.pre_ms, b.inference_ms,
                b.total_ms, b.tax_fraction,
            )
        )
        series[soc_key] = [b.capture_ms, b.pre_ms, b.inference_ms]
    return ExperimentResult(
        experiment_id="soc_sweep",
        title="mobilenet_v1 [int8] app breakdown across platforms",
        headers=headers,
        rows=rows,
        series=series,
        notes=[
            "newer DSPs shrink inference faster than CPUs shrink pre-"
            "processing, so the AI-tax fraction *grows* with newer SoCs",
        ],
    )


def _column_ratio(model_key, header, baseline):
    """Measure: one model's ``header`` over its ``baseline`` column."""

    def measure(result):
        return (
            result.lookup("Model", header)[model_key]
            / result.lookup("Model", baseline)[model_key]
        )

    return measure


MEMORY_CLAIMS = (
    Claim("mobilenet_int8_shrink", "less memory", "[3.96, 4.04]",
          cell("Model", "shrink", "mobilenet_v1"),
          "less memory is required to store int8 weights and activations"),
    Claim("deeplab_activation_over_weights", "n/a", "> 1",
          _column_ratio("deeplab_v3", "fp32 peak act MB", "fp32 weights MB"),
          "DeepLab's dense 513x513 output dominates its arena"),
    Claim("alexnet_weights_over_activation", "n/a", "> 50",
          _column_ratio("alexnet", "fp32 weights MB", "fp32 peak act MB"),
          "AlexNet's footprint is its huge FC weights"),
)


@experiment("memory_footprint", claims=MEMORY_CLAIMS)
def run_memory_footprint():
    """Model memory: weights + activation arena, fp32 vs int8.

    Quantization's second benefit besides DSP eligibility (§II-B "less
    memory is required to store weights and activations"): a 4x smaller
    resident footprint, which also shrinks load time and offload
    transfer volume.
    """
    from repro.models import MODEL_CARDS

    headers = (
        "Model", "fp32 weights MB", "fp32 peak act MB", "fp32 total MB",
        "int8 total MB", "shrink",
    )
    rows = []
    for key, card in sorted(MODEL_CARDS.items()):
        fp32 = load_model(key, "fp32")
        fp32_total = fp32.memory_footprint_bytes / 1e6
        if card.cpu_int8 or card.nnapi_int8:
            int8_total = load_model(key, "int8").memory_footprint_bytes / 1e6
            shrink = fp32_total / int8_total
        else:
            int8_total = float("nan")
            shrink = float("nan")
        rows.append(
            (
                key,
                fp32.weight_bytes / 1e6,
                fp32.peak_activation_bytes / 1e6,
                fp32_total,
                int8_total,
                shrink,
            )
        )
    return ExperimentResult(
        experiment_id="memory_footprint",
        title="Model memory footprint: weights + activation arena",
        headers=headers,
        rows=rows,
        notes=["int8 shrinks the footprint ~4x where supported"],
    )


def _over_area(header):
    """Measure: 224-over-128 growth of ``header`` over the area growth."""

    def measure(result):
        growth = ratio("input", header, "224x224", "128x128")(result)
        return growth / (224 / 128) ** 2

    return measure


SCALING_CLAIMS = (
    Claim("flops_over_area", "~quadratic", "[0.85, 1.15]",
          _over_area("GFLOPs"),
          "network FLOPs scale ~quadratically with the input side"),
    Claim("inference_over_area", "~quadratic", "[0.7, 1.3]",
          _over_area("inference ms (cpu x4)"),
          "inference latency scales ~quadratically with the input side"),
)


@experiment("model_scaling", claims=SCALING_CLAIMS)
def run_model_scaling(runs=6, seed=0):
    """Input resolution vs inference and pre-processing cost (§II-B).

    "A model is trained on images of fixed dimensions, and the input
    dimensions determine a network's architecture" — both inference
    FLOPs and pre-processing scale ~quadratically with the input side.
    """
    from repro.frameworks import TfliteInterpreter
    from repro.models.architectures import build_mobilenet_v1
    from repro.processing.costs import resize_cost_us

    headers = (
        "input", "GFLOPs", "inference ms (cpu x4)", "resize cost ms",
    )
    rows = []
    for resolution in (128, 160, 192, 224):
        graph = build_mobilenet_v1(resolution=resolution)
        with rig(seed=seed, governor="performance") as (_sim, _soc, kernel):
            session = TfliteInterpreter(kernel, graph, threads=4)
            durations = drive(kernel, session, 4)
            warm_ms = units.to_ms(sum(durations[1:]) / 3)
        rows.append(
            (
                f"{resolution}x{resolution}",
                graph.total_flops / 1e9,
                warm_ms,
                units.to_ms(resize_cost_us((resolution, resolution), impl="java")),
            )
        )
    return ExperimentResult(
        experiment_id="model_scaling",
        title="MobileNet v1: input resolution scaling",
        headers=headers,
        rows=rows,
        notes=[
            "FLOPs, inference, and resize all scale ~quadratically with "
            "the input side (paper §II-B)",
        ],
    )


def _inference_spread(result):
    inference = result.column("inference ms")
    return max(inference) / min(inference)


RESOLUTION_CLAIMS = (
    Claim("capture_1080p_over_qvga", "non-linear drops", "> 2",
          ratio("source", "capture ms", "1920x1080", "320x240"),
          "a wrong capture resolution causes non-linear performance drops"),
    Claim("inference_spread", "n/a", "< 1.2", _inference_spread,
          "inference is resolution-independent (fixed model input)"),
)


@experiment("resolution_sweep", claims=RESOLUTION_CLAIMS, bench={"runs": 6})
def run_resolution_sweep(runs=8, seed=0):
    """Capture resolution vs pipeline cost (paper §II-A).

    "An incorrect choice of image resolution can cause non-linear
    performance drops": bitmap conversion scales with *source* pixels
    even though the model input stays 224x224.
    """
    headers = (
        "source", "megapixels", "capture ms", "pre ms", "inference ms",
        "total ms",
    )
    rows = []
    for label, source_hw in (
        ("320x240", (240, 320)),
        ("640x480", (480, 640)),
        ("1280x720", (720, 1280)),
        ("1920x1080", (1080, 1920)),
    ):
        config = PipelineConfig(
            model_key="mobilenet_v1", dtype="int8", context="app",
            target="nnapi", runs=runs, seed=seed, source_hw=source_hw,
        )
        b = breakdown(run_pipeline(config))
        megapixels = source_hw[0] * source_hw[1] / 1e6
        rows.append(
            (label, megapixels, b.capture_ms, b.pre_ms, b.inference_ms,
             b.total_ms)
        )
    return ExperimentResult(
        experiment_id="resolution_sweep",
        title="mobilenet_v1 [int8]: capture resolution vs pipeline cost",
        headers=headers,
        rows=rows,
        notes=[
            "inference is resolution-independent (fixed 224x224 input); "
            "capture-side cost scales with source pixels",
        ],
    )


def _algorithm_share(result):
    """Capture + pre- + post-processing share of end-to-end time."""
    shares = result.lookup("stage", "share")
    return (
        shares["data_capture"] + shares["pre_processing"]
        + shares["post_processing"]
    )


def _top_stage_is_capture(result):
    """Whether data capture, the largest stage, tops the priorities."""
    shares = result.lookup("stage", "share")
    return max(shares, key=shares.get) == "data_capture"


WHATIF_CLAIMS = (
    Claim("algorithm_share", "~50%", ">= 0.4", _algorithm_share,
          "capture + pre/post-processing can be ~50% of execution time"),
    Claim("capture_first", "n/a", "= yes", _top_stage_is_capture,
          "speeding up data capture pays more than speeding up inference"),
    Claim("accelerator_ceiling", "capped by the AI tax", "< 2",
          lambda result: result.series["accelerator_ceiling"][0],
          "ML-only speedups are capped by the AI tax (Amdahl)"),
)


@experiment("whatif", claims=WHATIF_CLAIMS, bench={"runs": 8})
def run_whatif(runs=12, seed=0):
    """Optimization priorities from the measured breakdown.

    Answers the question the paper poses to each audience: where does a
    2x stage speedup pay off most, and what is the Amdahl ceiling of an
    inference-only accelerator upgrade?
    """
    from repro.core.whatif import (
        accelerator_upgrade_ceiling,
        optimization_priorities,
    )

    config = PipelineConfig(
        model_key="mobilenet_v1", dtype="int8", context="app",
        target="nnapi", runs=runs, seed=seed,
    )
    b = breakdown(run_pipeline(config))
    headers = (
        "stage", "stage ms", "share", "2.0x speedup -> e2e gain",
    )
    rows = [
        (impact.stage, impact.stage_ms, impact.stage_share,
         impact.end_to_end_speedup)
        for impact in optimization_priorities(b, factor=2.0)
    ]
    ceiling = accelerator_upgrade_ceiling(b)
    return ExperimentResult(
        experiment_id="whatif",
        title="mobilenet_v1 [int8] app: optimization priorities",
        headers=headers,
        rows=rows,
        series={"accelerator_ceiling": [ceiling]},
        notes=[
            f"infinitely fast NPU ceiling: {ceiling:.2f}x end-to-end "
            "(Amdahl over the AI tax)",
            "paper: 'obsessing about ML-only performance can lead us to "
            "miss the forest for the trees'",
        ],
    )


INIT_TIME_CLAIMS = (
    Claim("gpu_init_ms", "worth measuring", "> 50",
          cell("target", "init ms", "gpu"),
          "GPU delegate initialization (shader compile) is expensive"),
)


#: Model switches each half of the switching comparison makes.
SWITCHES = 5


@experiment("init_time", claims=INIT_TIME_CLAIMS)
def run_init_time(seed=0):
    """Model initialization and switching cost (§IV-C).

    "The TFlite benchmark tool breaks down model initialization time,
    which is good to measure if an application switches between models
    or frequently reloads them." This experiment measures init
    (load + compile + delegate setup) per (model, target), and the cost
    of an app alternating between two models versus keeping both warm.
    """
    headers = ("Model", "target", "init ms", "warm invoke ms",
               "invokes to amortize init")
    rows = []
    for model_key, dtype, target in (
        ("mobilenet_v1", "int8", "hexagon"),
        ("mobilenet_v1", "int8", "nnapi"),
        ("mobilenet_v1", "fp32", "gpu"),
        ("mobilenet_v1", "fp32", "cpu"),
        ("inception_v3", "fp32", "cpu"),
    ):
        with rig(seed=seed, governor="performance") as (_sim, _soc, kernel):
            model = load_model(model_key, dtype)
            session = make_session(kernel, model, target=target)
            durations = drive(kernel, session, 4)
            warm_ms = units.to_ms(sum(durations[1:]) / 3)
            init_ms = units.to_ms(session.stats.init_us)
        rows.append(
            (
                f"{model_key} [{dtype}]",
                target,
                init_ms,
                warm_ms,
                init_ms / warm_ms if warm_ms else float("inf"),
            )
        )

    # Model switching: alternate two models, reloading each time, vs
    # keeping two prepared sessions resident.
    def _switching(resident):
        with rig(seed=seed, governor="performance") as (sim, _soc, kernel):
            models = [
                load_model("mobilenet_v1", "int8"),
                load_model("efficientnet_lite0", "int8"),
            ]
            start_done = {}

            def body():
                if resident:
                    sessions = [
                        make_session(kernel, model, target="hexagon")
                        for model in models
                    ]
                    for session in sessions:
                        yield from session.prepare()
                    for index in range(2 * SWITCHES):
                        yield from sessions[index % 2].invoke()
                else:
                    for index in range(2 * SWITCHES):
                        session = make_session(
                            kernel, models[index % 2], target="hexagon"
                        )
                        yield from session.prepare()
                        yield from session.invoke()
                start_done["t"] = kernel.now

            thread = kernel.spawn_on_big(body(), name="switcher")
            sim.run(until=thread.done)
            return units.to_ms(start_done["t"])

    reload_ms = _switching(resident=False)
    resident_ms = _switching(resident=True)
    rows.append((f"switching 2 models x{SWITCHES}", "reload each time",
                 reload_ms, resident_ms, reload_ms / resident_ms))
    return ExperimentResult(
        experiment_id="init_time",
        title="Model initialization and switching cost",
        headers=headers,
        rows=rows,
        notes=[
            "last row: total ms reloading-per-switch vs resident sessions",
            "GPU delegate init (shader compile) dominates its column",
        ],
    )


def _more_drops(result):
    dropped = result.lookup("Model", "frames dropped")
    return dropped["inception_v3"] - dropped["mobilenet_v1"]


STREAMING_CLAIMS = (
    Claim("mobilenet_fps", "n/a", "[29, 31]",
          cell("Model", "achieved fps", "mobilenet_v1"),
          "a light model keeps up with the 30 fps camera"),
    Claim("inception_fps", "n/a", "< 5",
          cell("Model", "achieved fps", "inception_v3"),
          "a heavy model falls far behind the camera"),
    Claim("inception_over_mobilenet_drops", "n/a", "> 0", _more_drops,
          "the slow model drops more camera frames"),
)


@experiment("streaming", claims=STREAMING_CLAIMS, bench={"runs": 12})
def run_streaming(runs=20, seed=0):
    """Achieved frame rate and camera drops per model (app context)."""
    headers = (
        "Model", "dtype", "mean frame ms", "achieved fps", "frames dropped",
    )
    rows = []
    for model_key, dtype in (
        ("mobilenet_v1", "int8"),
        ("efficientnet_lite0", "fp32"),
        ("posenet", "fp32"),
        ("inception_v3", "fp32"),
    ):
        config = PipelineConfig(
            model_key=model_key, dtype=dtype, context="app",
            target="nnapi", runs=runs, seed=seed,
        )
        with simulate_pipeline(config) as (records, packaging):
            mean_ms = breakdown(records).total_ms
            camera = packaging.camera
            dropped = camera.frames_dropped if camera else 0
        fps = units.fps_from_ms(mean_ms) if mean_ms else 0.0
        rows.append((model_key, dtype, mean_ms, min(fps, config.fps), dropped))
    return ExperimentResult(
        experiment_id="streaming",
        title="End-user experience: achieved FPS per model",
        headers=headers,
        rows=rows,
        notes=["frames dropped = camera buffers recycled unconsumed"],
    )
