"""App pipeline tests: packagings, harness, background load."""

import math

import pytest

from repro.android import Kernel
from repro.apps import (
    AndroidApp,
    BenchmarkApp,
    BenchmarkCli,
    PipelineConfig,
    make_session,
    run_pipeline,
    start_background_inferences,
)
from repro.apps.harness import simulate_pipeline
from repro.core import breakdown
from repro.sim import Simulator
from repro.soc import make_soc


def make_rig(seed=0):
    sim = Simulator(seed=seed)
    soc = make_soc(sim, "sd845", governor_mode="performance")
    kernel = Kernel(sim, soc, enable_dvfs=False)
    return sim, kernel


def test_make_session_targets():
    sim, kernel = make_rig()
    from repro.models import load_model

    model = load_model("mobilenet_v1", "int8")
    for target in ("cpu", "cpu1", "nnapi", "hexagon", "snpe-dsp"):
        session = make_session(kernel, model, target=target)
        assert session is not None
    with pytest.raises(ValueError, match="unknown target"):
        make_session(kernel, model, target="tpu")


def test_cli_benchmark_records_stages():
    sim, kernel = make_rig()
    bench = BenchmarkCli(kernel, "mobilenet_v1", dtype="fp32", target="cpu")
    records = bench.execute(runs=4)
    assert len(records) == 4
    for run in records:
        assert run.inference_us > 0
        assert run.capture_us > 0  # random generation
        assert run.other_us == 0  # no UI


def test_benchmark_app_adds_ui_work():
    sim, kernel = make_rig()
    bench = BenchmarkApp(kernel, "mobilenet_v1", dtype="fp32", target="cpu")
    records = bench.execute(runs=3)
    assert all(run.other_us > 0 for run in records)


def test_android_app_full_pipeline():
    sim, kernel = make_rig()
    app = AndroidApp(kernel, "mobilenet_v1", dtype="int8", target="hexagon")
    records = app.execute(runs=4)
    assert len(records) == 4
    for run in records:
        assert run.capture_us > 0
        assert run.pre_us > 0
        assert run.inference_us > 0
        assert run.post_us > 0
        assert run.other_us > 0


def test_android_app_bert_has_no_camera():
    sim, kernel = make_rig()
    app = AndroidApp(kernel, "mobile_bert", dtype="fp32", target="cpu")
    assert app.camera is None
    records = app.execute(runs=2)
    assert all(run.capture_us > 0 for run in records)  # text arrival IPC


def test_first_run_includes_warmup_effects():
    config = PipelineConfig(
        model_key="mobilenet_v1", dtype="int8", context="app",
        target="hexagon", runs=5,
    )
    records = run_pipeline(config)
    warm = records.drop_warmup(1)
    assert records.runs[0].inference_us > warm.mean_us("inference_us")


def test_run_pipeline_contexts_ordering():
    totals = {}
    for context in ("cli", "bench_app", "app"):
        config = PipelineConfig(
            model_key="mobilenet_v1", dtype="fp32", context=context,
            target="cpu", runs=6,
        )
        totals[context] = breakdown(run_pipeline(config)).total_ms
    assert totals["app"] > totals["cli"]
    assert totals["bench_app"] >= totals["cli"]


def test_bad_context_rejected():
    with pytest.raises(ValueError, match="unknown context"):
        PipelineConfig(context="daemon")


def test_background_jobs_contend_for_dsp():
    inference = {}
    for count in (0, 3):
        config = PipelineConfig(
            model_key="mobilenet_v1", dtype="int8", context="app",
            target="nnapi", runs=6,
            background=(count, "nnapi") if count else None,
        )
        inference[count] = breakdown(run_pipeline(config)).inference_ms
    assert inference[3] > 1.8 * inference[0]


def test_background_jobs_on_cpu_leave_dsp_alone():
    config = PipelineConfig(
        model_key="mobilenet_v1", dtype="int8", context="app",
        target="nnapi", runs=6, background=(3, "cpu"),
        background_dtype="fp32", background_threads=4,
    )
    loaded = breakdown(run_pipeline(config))
    config_idle = PipelineConfig(
        model_key="mobilenet_v1", dtype="int8", context="app",
        target="nnapi", runs=6,
    )
    idle = breakdown(run_pipeline(config_idle))
    assert loaded.inference_ms < 1.6 * idle.inference_ms


def test_negative_background_count_rejected():
    sim, kernel = make_rig()
    with pytest.raises(ValueError):
        start_background_inferences(kernel, -1)


def test_background_jobs_loop_until_the_simulation_stops():
    sim, kernel = make_rig()
    threads = start_background_inferences(
        kernel, 2, target="cpu", dtype="fp32"
    )
    sim.run(until=sim.timeout(500_000))
    busy_us = [thread.stats.cpu_time_us for thread in threads]
    sim.run(until=sim.timeout(500_000))
    for thread, before_us in zip(threads, busy_us):
        # Each job keeps invoking: still alive and still using the CPU.
        assert not thread.done.triggered
        assert thread.stats.cpu_time_us > before_us > 0


def test_deterministic_pipeline_given_seed():
    config = PipelineConfig(
        model_key="mobilenet_v1", dtype="fp32", context="app",
        target="cpu", runs=5, seed=11,
    )
    first = run_pipeline(config).mean_us()
    second = run_pipeline(config).mean_us()
    assert first == second


def test_different_seeds_vary_app_latency():
    means = set()
    for seed in (1, 2, 3):
        config = PipelineConfig(
            model_key="mobilenet_v1", dtype="fp32", context="app",
            target="cpu", runs=5, seed=seed,
        )
        means.add(round(run_pipeline(config).mean_us(), 3))
    assert len(means) > 1


#: The ``pipeline`` track's stage spans, in loop order, and the
#: ``PipelineRun`` field each one measures.
STAGE_SPANS = (
    ("data_capture", "capture_us"),
    ("pre_processing", "pre_us"),
    ("inference", "inference_us"),
    ("post_processing", "post_us"),
    ("other", "other_us"),
)


@pytest.mark.parametrize("context, target, model_key, dtype, background", [
    ("cli", "cpu", "mobilenet_v1", "fp32", None),
    ("bench_app", "nnapi", "mobilenet_v1", "int8", None),
    ("app", "nnapi", "mobilenet_v1", "int8", (2, "nnapi")),
    ("app", "cpu", "mobile_bert", "fp32", None),
    ("app", "snpe-dsp", "mobilenet_v1", "int8", None),
])
def test_stage_spans_tile_each_iteration(context, target, model_key, dtype,
                                         background):
    """The five stage spans of an iteration abut, each lasts exactly its
    ``PipelineRun`` field, and the stage sum is the elapsed time."""
    config = PipelineConfig(
        model_key=model_key, dtype=dtype, context=context, target=target,
        runs=4, trace=True, background=background,
    )
    labels = {label for label, _field in STAGE_SPANS}
    with simulate_pipeline(config) as (records, packaging):
        spans = [
            span for span in packaging.kernel.trace.spans_on("pipeline")
            if span.label in labels
        ]
    width = len(STAGE_SPANS)
    assert len(spans) == width * len(records) == 20
    for index, run in enumerate(records):
        iteration = spans[index * width:(index + 1) * width]
        for position, (span, (label, fieldname)) in enumerate(
            zip(iteration, STAGE_SPANS)
        ):
            assert span.label == label
            assert span.meta["iteration"] == index
            if position:
                assert span.start == iteration[position - 1].end
            assert span.duration == getattr(run, fieldname)
        elapsed = iteration[-1].end - iteration[0].start
        assert math.isclose(run.total_us, elapsed, rel_tol=1e-12)
