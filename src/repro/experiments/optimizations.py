"""Optimization studies the paper's discussion motivates.

* ``pipelining`` — overlap capture/pre-processing with inference
  (software pipelining): throughput tracks the slowest stage instead of
  the stage sum.
* ``ablation_fastcv`` — offload image pre-processing to the DSP
  (FastCV-style), the paper's suggestion that "a cheaper DSP that can
  also do pre-processing" may beat a bigger tensor accelerator. Includes
  the catch the paper warns about: when inference shares that DSP, the
  two serialize.
"""

from repro.android import Kernel
from repro.android.fastrpc import FastRpcChannel
from repro.android.thread import Work
from repro.apps import PipelineConfig, run_pipeline
from repro.apps.pipelined import PipelinedApp
from repro.apps.sessions import make_session
from repro.capture import CameraHal
from repro.core import breakdown
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim, cell, ratio
from repro.models import load_model, model_card
from repro.processing import build_preprocessor
from repro.sim import Simulator
from repro.sim import units
from repro.soc import make_soc

#: HVX speedup for vectorizable image kernels vs one big CPU core
#: (FastCV-class image processing on the DSP's vector units).
_DSP_IMAGE_SPEEDUP = 4.0


PIPELINING_CLAIMS = (
    Claim("throughput_gain", "n/a", "> 1.05",
          ratio("Mode", "throughput fps", "pipelined", "sequential"),
          "overlapping capture/pre with inference raises throughput..."),
    Claim("frame_latency_cost", "n/a", "> 1",
          ratio("Mode", "frame ms", "pipelined", "sequential"),
          "...at the cost of per-frame latency (queueing between stages)"),
)


@experiment("pipelining", claims=PIPELINING_CLAIMS, bench={"frames": 15})
def run_pipelining(frames=20, seed=0, model_key="efficientnet_lite0",
                   dtype="fp32", target="gpu"):
    """Sequential vs pipelined app: latency and throughput."""
    sequential = run_pipeline(
        PipelineConfig(
            model_key=model_key, dtype=dtype, context="app",
            target=target, runs=frames, seed=seed,
        )
    )
    seq = breakdown(sequential)
    seq_fps = units.fps_from_ms(seq.total_ms) if seq.total_ms else 0.0

    sim = Simulator(seed=seed)
    soc = make_soc(sim, "sd845")
    kernel = Kernel(sim, soc)
    app = PipelinedApp(kernel, model_key, dtype=dtype, target=target)
    piped_records = app.execute(frames=frames)
    piped = breakdown(piped_records)
    piped_fps = piped_records.runs[-1].meta["throughput_fps"]

    headers = (
        "Mode", "capture ms", "pre ms", "inference ms", "frame ms",
        "throughput fps",
    )
    rows = [
        ("sequential", seq.capture_ms, seq.pre_ms, seq.inference_ms,
         seq.total_ms, seq_fps),
        ("pipelined", piped.capture_ms, piped.pre_ms, piped.inference_ms,
         piped.total_ms, piped_fps),
    ]
    return ExperimentResult(
        experiment_id="pipelining",
        title=f"{model_key} [{dtype}] on {target}: sequential vs pipelined",
        headers=headers,
        rows=rows,
        notes=[
            "pipelined throughput tracks the slowest stage, not the sum",
            "per-frame latency includes queue wait (other) in pipelined mode",
        ],
    )


def _all_dsp_model_spread_ms(result):
    """Spread of the per-model latencies when all three share the DSP."""
    per_model = result.lookup("placement", "per-model ms")["all-dsp"]
    latencies = [float(ms) for ms in per_model.split(", ")]
    return max(latencies) - min(latencies)


ARVR_CLAIMS = (
    Claim("split_over_all_dsp_fps", "one model at a time", "> 1",
          ratio("placement", "achieved fps", "split dsp+gpu+cpu", "all-dsp"),
          "spreading models over DSP+GPU+CPU runs them in parallel"),
    Claim("all_dsp_over_all_cpu_fps", "n/a", "> 1",
          ratio("placement", "achieved fps", "all-dsp", "all-cpu"),
          "the DSP still beats running everything on the CPU"),
    Claim("all_dsp_model_spread_ms", "one model at a time", "< 2",
          _all_dsp_model_spread_ms,
          "hardware runs one model at a time: models sharing the DSP queue"),
)


@experiment("arvr_multimodel", claims=ARVR_CLAIMS, bench={"frames": 8})
def run_arvr_multimodel(frames=12, seed=0):
    """Concurrent multi-model execution — the paper's AR/VR use case.

    §IV-C: "an emerging use-case is the growing need to support
    multiple models running concurrently ... hand-tracking,
    depth-tracking, gesture recognition in AR/VR. Yet most hardware
    today supports the execution of one model at a time." Three models
    per frame (pose + detection + classification) under two placements:
    everything on the DSP (serializes on the capacity-1 device) versus
    spread across DSP + GPU + CPU (parallel across devices).
    """
    # Three concurrent tasks; each placement chooses (dtype, target)
    # per model. Quantized variants exist for all three, so "all-dsp"
    # genuinely stacks them onto the single Hexagon.
    models = ("ssd_mobilenet_v2", "mobilenet_v1", "efficientnet_lite0")
    # An explicit sequence, not a dict: row order is the story the
    # table tells (stacked -> split -> baseline), not insertion order.
    placements = (
        ("all-dsp", (("int8", "hexagon"), ("int8", "hexagon"),
                     ("int8", "hexagon"))),
        ("split dsp+gpu+cpu", (("int8", "hexagon"), ("fp32", "gpu"),
                               ("int8", "cpu"))),
        ("all-cpu", (("int8", "cpu"), ("int8", "cpu"), ("int8", "cpu"))),
    )
    headers = ("placement", "frame ms", "achieved fps", "per-model ms")
    rows = []
    for label, choices in placements:
        sim = Simulator(seed=seed)
        soc = make_soc(sim, "sd845")
        kernel = Kernel(sim, soc)
        sessions = [
            make_session(kernel, load_model(key, dtype), target=target,
                         threads=4)
            for key, (dtype, target) in zip(models, choices)
        ]
        frame_times = []
        model_times = [[] for _ in sessions]

        def frame_body(index):
            def body(session=sessions[index], slot=index):
                yield from session.prepare()
                while True:
                    start = kernel.now
                    yield from session.invoke()
                    model_times[slot].append(kernel.now - start)
                    done = frame_gates[slot]
                    frame_gates[slot] = kernel.sim.event()
                    done.succeed()
            return body()

        # Drive all three each frame; the frame completes when the
        # slowest model finishes (lockstep, as an AR/VR loop would).
        frame_gates = [kernel.sim.event() for _ in sessions]
        workers = [
            kernel.spawn(frame_body(index), name=f"model{index}")
            for index in range(len(sessions))
        ]

        def conductor():
            from repro.android.thread import WaitFor

            for _ in range(frames):
                start = kernel.now
                gates = list(frame_gates)
                for gate in gates:
                    yield WaitFor(gate)
                frame_times.append(kernel.now - start)

        thread = kernel.spawn(conductor(), name="conductor")
        # Workers loop forever; the run simply stops once the conductor
        # has observed the requested number of frames.
        sim.run(until=thread.done)
        del workers
        warm = frame_times[1:]
        frame_ms = units.to_ms(sum(warm) / len(warm))
        per_model = ", ".join(
            f"{units.to_ms(sum(times[1:]) / len(times[1:])):.1f}"
            for times in model_times
        )
        rows.append((label, frame_ms, units.fps_from_ms(frame_ms), per_model))
    return ExperimentResult(
        experiment_id="arvr_multimodel",
        title="Three concurrent models (AR/VR): placement comparison",
        headers=headers,
        rows=rows,
        notes=[
            "one DSP: co-locating quantized models serializes them",
            "spreading across DSP+GPU+CPU runs the frame in parallel",
        ],
    )


MLPERF_CLAIMS = (
    Claim("app_over_benchmark_latency", "benchmark hides it", "> 1.5",
          cell("Metric", "value", "app/benchmark latency gap"),
          "a benchmark score describes a fraction of what users wait for"),
    Claim("hidden_tax", "hidden", "(0.3, 0.95)",
          cell("Metric", "value", "AI tax hidden by the benchmark"),
          "most of the app's latency is AI tax the benchmark never sees"),
    Claim("app_inference_over_single_stream", "n/a", "[0.5, 1.5]",
          ratio("Metric", "value", "app inference-only ms",
                "single-stream mean latency ms"),
          "the app's inference stage matches the benchmark's score"),
)


@experiment(
    "mlperf_gap", claims=MLPERF_CLAIMS, bench={"queries": 20, "runs": 10},
)
def run_mlperf_gap(queries=40, runs=15, seed=0, model_key="mobilenet_v1",
                   dtype="int8", target="nnapi"):
    """MLPerf scores vs app-experienced latency — the paper's thesis.

    A single-stream p90 score measures inference alone; the same model
    inside an app pays capture, pre/post-processing, and rendering on
    top. The ratio between the two is the AI tax a pure benchmark hides.
    """
    from repro.apps.loadgen import MlperfLoadgen, OFFLINE, SINGLE_STREAM

    sim = Simulator(seed=seed)
    soc = make_soc(sim, "sd845")
    kernel = Kernel(sim, soc)
    loadgen = MlperfLoadgen(kernel, model_key, dtype=dtype, target=target)
    single = loadgen.run(SINGLE_STREAM, queries=queries)

    sim = Simulator(seed=seed)
    soc = make_soc(sim, "sd845")
    kernel = Kernel(sim, soc)
    offline = MlperfLoadgen(
        kernel, model_key, dtype=dtype, target=target
    ).run(OFFLINE, queries=queries)

    app = breakdown(
        run_pipeline(
            PipelineConfig(
                model_key=model_key, dtype=dtype, context="app",
                target=target, runs=runs, seed=seed,
            )
        )
    )

    headers = ("Metric", "value")
    rows = [
        ("single-stream p90 latency ms", single.p90_latency_ms),
        ("single-stream mean latency ms", single.mean_latency_ms),
        ("offline throughput qps", offline.throughput_qps),
        ("app end-to-end latency ms", app.total_ms),
        ("app inference-only ms", app.inference_ms),
        ("app/benchmark latency gap", app.total_ms / single.mean_latency_ms),
        ("AI tax hidden by the benchmark", app.tax_fraction),
    ]
    return ExperimentResult(
        experiment_id="mlperf_gap",
        title=f"{model_key} [{dtype}]: MLPerf-style scores vs app reality",
        headers=headers,
        rows=rows,
        notes=[
            "the benchmark's score describes a fraction of what the "
            "user experiences (paper: 'missing the forest for the trees')",
        ],
    )


DRIVER_CLAIMS = (
    Claim("fallback_at_1_1", "falls back", "= yes",
          cell("feature level", "reference fallback", 1.1),
          "the paper's SD845 drivers fall back to reference kernels"),
    Claim("fallback_at_1_2", "predicted fix", "= no",
          cell("feature level", "reference fallback", 1.2),
          "future iterations may likely fix this performance bug..."),
    Claim("fallback_at_1_3", "predicted fix", "= no",
          cell("feature level", "reference fallback", 1.3),
          "...and the fix holds at the next feature level"),
    Claim("fix_speedup", "predicted fix", "> 10",
          ratio("feature level", "inference ms", 1.1, 1.2),
          "feature level 1.2 removes the fallback's slowdown"),
    Claim("accelerated_at_1_2", "n/a", "= 1",
          cell("feature level", "accelerated FLOPs", 1.2),
          "feature level 1.2 delegates the whole graph"),
)


@experiment("driver_versions", claims=DRIVER_CLAIMS, bench={"invokes": 6})
def run_driver_versions(invokes=8, seed=0, model_key="efficientnet_lite0",
                        dtype="int8"):
    """The Fig.-5 pathology across NNAPI driver feature levels.

    The paper predicts "future iterations may likely fix this
    performance bug": feature level 1.2 ships the quantized large-kernel
    depthwise ops, 1.3 the asymmetric convolutions. This sweep shows the
    fallback disappearing as drivers catch up.
    """
    from repro.frameworks import NnapiSession

    headers = (
        "feature level", "inference ms", "reference fallback",
        "accelerated FLOPs",
    )
    rows = []
    for level in (1.1, 1.2, 1.3):
        sim = Simulator(seed=seed)
        soc = make_soc(sim, "sd845", governor_mode="performance")
        kernel = Kernel(sim, soc, enable_dvfs=False)
        model = load_model(model_key, dtype)
        session = NnapiSession(kernel, model, feature_level=level)
        durations = []

        def body():
            yield from session.prepare()
            for _ in range(invokes):
                duration = yield from session.invoke()
                durations.append(duration)

        thread = kernel.spawn_on_big(body(), name="drv")
        sim.run(until=thread.done)
        warm = durations[1:]
        rows.append(
            (
                level,
                units.to_ms(sum(warm) / len(warm)),
                session.reference_fallback,
                session.accelerated_fraction(),
            )
        )
    return ExperimentResult(
        experiment_id="driver_versions",
        title=f"{model_key} [{dtype}] via NNAPI: driver feature levels",
        headers=headers,
        rows=rows,
        notes=[
            "1.1 = the paper's SD845 drivers (reference fallback, ~7x)",
            "1.2+ supports the missing quantized ops: full delegation",
        ],
    )


def _fastcv_app_run(sim, kernel, runs, model_key, dtype, pre_on_dsp,
                    inference_target):
    """One app loop with pre-processing optionally offloaded to the DSP."""
    soc = kernel.soc
    card = model_card(model_key)
    model = load_model(model_key, dtype)
    session = make_session(kernel, model, target=inference_target)
    plan = build_preprocessor(card, model, context="app")
    camera = CameraHal(kernel)
    camera.start()
    channel = FastRpcChannel(kernel, process_id=999)
    frame_bytes = 480 * 640 * 3 // 2
    stage_totals = {"pre": 0.0, "inference": 0.0}

    def body():
        yield from session.prepare()
        for _ in range(runs):
            yield from camera.capture()
            pre_start = kernel.now
            if pre_on_dsp:
                # FastCV path: ship the frame to the DSP, run the image
                # kernels on HVX, ship the model input back.
                dsp_work = plan.cost_us / _DSP_IMAGE_SPEEDUP
                yield from channel.invoke(
                    frame_bytes, model.input_bytes, dsp_work,
                    label="fastcv:pre",
                )
            else:
                yield Work(plan.cost_us, label="app:pre")
            stage_totals["pre"] += kernel.now - pre_start
            infer_start = kernel.now
            yield from session.invoke()
            stage_totals["inference"] += kernel.now - infer_start

    thread = kernel.spawn_on_big(body(), name="fastcv_app")
    sim.run(until=thread.done)
    return (
        units.to_ms(stage_totals["pre"] / runs),
        units.to_ms(stage_totals["inference"] / runs),
    )


def _dsp_over_cpu_pre(inference_on, header):
    """Measure: ``header`` with FastCV pre-processing over Java's."""

    def measure(result):
        rows = {tuple(row[:2]): row for row in result.rows}
        index = result.headers.index(header)
        return (
            rows[("dsp (FastCV)", inference_on)][index]
            / rows[("cpu (Java)", inference_on)][index]
        )

    return measure


FASTCV_CLAIMS = (
    Claim("dsp_over_cpu_pre", "cheaper DSP wins", "< 0.6",
          _dsp_over_cpu_pre("cpu", "pre ms"),
          "a DSP that also does pre-processing beats the CPU at it"),
    Claim("shared_dsp_inference", "serialize", ">= 0.99",
          _dsp_over_cpu_pre("hexagon", "inference ms"),
          "when inference shares the DSP the stages serialize on it..."),
    Claim("shared_dsp_end_to_end", "cheaper DSP wins", "< 1",
          _dsp_over_cpu_pre("hexagon", "pre+inference ms"),
          "...yet DSP pre-processing still wins end to end here"),
)


@experiment("ablation_fastcv", claims=FASTCV_CLAIMS, bench={"runs": 8})
def run_fastcv(runs=10, seed=0, model_key="mobilenet_v1", dtype="int8"):
    """Pre-processing on CPU vs on the DSP, with inference on DSP or CPU."""
    headers = (
        "pre-processing", "inference on", "pre ms", "inference ms",
        "pre+inference ms",
    )
    rows = []
    for pre_on_dsp in (False, True):
        for inference_target in ("hexagon", "cpu"):
            sim = Simulator(seed=seed)
            soc = make_soc(sim, "sd845")
            kernel = Kernel(sim, soc)
            pre_ms, inference_ms = _fastcv_app_run(
                sim, kernel, runs, model_key, dtype, pre_on_dsp,
                inference_target,
            )
            rows.append(
                (
                    "dsp (FastCV)" if pre_on_dsp else "cpu (Java)",
                    inference_target,
                    pre_ms,
                    inference_ms,
                    pre_ms + inference_ms,
                )
            )
    return ExperimentResult(
        experiment_id="ablation_fastcv",
        title=f"{model_key} [{dtype}]: offloading pre-processing to the DSP",
        headers=headers,
        rows=rows,
        notes=[
            "paper discussion: a DSP that also does pre-processing can "
            "beat a pure tensor accelerator",
            "when inference shares the DSP the stages serialize on it",
        ],
    )
