"""The three packagings of one model (paper §III-B, Fig. 3).

* :class:`BenchmarkCli` — the TFLite ``benchmark_model`` utility run
  over adb: random input tensors, native pre-processing, no UI, quiet
  system.
* :class:`BenchmarkApp` — the TFLite Android benchmark app: the same
  loop inside an app process with a UI and the ambient daemon load.
* :class:`AndroidApp` — a real application (the TFLite example-app
  pipeline): camera capture, managed-code pre-processing, inference,
  post-processing, UI rendering, GC.

:class:`Packaging` is the measured loop all three share. It builds the
model, session and plans, prepares the session once, then splits each
iteration into data capture, pre-processing, inference, post-processing
and other. Each stage is a span on the ``pipeline`` track whose
duration is exactly the matching :class:`PipelineRun` field, so the
exported trace and the breakdown tables attribute the same
microseconds to the same stages. A packaging supplies only its stage
bodies and its defaults.

The CLI benchmark generates random tensors as input — its "data
capture" — which the paper shows is a poor proxy for real capture,
complete with a standard-library quirk: random reals are cheap under
libc++ and expensive under libstdc++, integers the other way around.
"""

from repro.android import AppProcess
from repro.android import params as os_params
from repro.android.interference import InterferenceProfile, start_interference
from repro.android.thread import Work
from repro.apps.sessions import make_session
from repro.capture import CameraHal
from repro.core.measurement import PipelineRun, RunCollection
from repro.models import load_model, model_card
from repro.processing import build_postprocess_plan, build_preprocessor
from repro.processing.costs import random_input_cost_us
from repro.sim.probes import probe

#: The ``pipeline`` track's stage spans, in loop order.
STAGES = (
    "data_capture", "pre_processing", "inference", "post_processing", "other",
)


class Packaging:
    """One model's measured loop: prepare once, then five stages a run.

    A subclass sets ``name`` (the app process) and supplies the stage
    bodies ``_capture``, ``_pre``, ``_post`` and, when it does anything
    after post-processing, ``_other``. ``label`` names the loop thread
    and the record set. A vision model in the ``"app"`` context gets a
    camera; every other packaging feeds its model without one.
    """

    #: Plan context: ``"benchmark"`` (native code) or ``"app"``.
    context = "app"
    managed_runtime = True
    #: Ambient daemon load started alongside the loop.
    interference = InterferenceProfile.app()

    def __init__(self, kernel, model_key, dtype, target, threads,
                 interference, preference, faults, label,
                 source_hw=(480, 640), fps=30.0):
        self.kernel = kernel
        self.model_key = model_key
        self.card = model_card(model_key)
        self.model = load_model(model_key, dtype)
        self.target = target
        self.label = label
        self.session = make_session(
            kernel, self.model, target=target, threads=threads,
            preference=preference, faults=faults,
        )
        self.pre_plan = build_preprocessor(
            self.card, self.model, context=self.context, source_hw=source_hw
        )
        self.post_plan = build_postprocess_plan(
            self.card, self.model, context=self.context
        )
        self.camera = (
            CameraHal(kernel, resolution=source_hw, fps=fps)
            if self.context == "app"
            and self.model.task != "language_processing"
            else None
        )
        self.records = RunCollection(name=f"{label}:{dtype}")
        if interference is not None:
            self.interference = interference
        self._started = False
        self.process = AppProcess(
            kernel, self.name, managed_runtime=self.managed_runtime
        )

    def start(self):
        """Start camera delivery and ambient interference (idempotent)."""
        if self._started:
            return
        if self.camera is not None:
            self.camera.start()
        start_interference(self.kernel, self.interference)
        self._started = True

    # -- the measured loop --------------------------------------------------

    def _other(self):
        """Nothing after post-processing by default."""
        return
        yield  # pragma: no cover - makes this a generator

    def body(self, runs):
        """Thread body: prepare once, then ``runs`` measured iterations."""
        self.start()
        kernel = self.kernel
        with probe(kernel, "pipeline", "prepare",
                   {"model": self.model_key}):
            yield from self.session.prepare()
        stages = tuple(zip(STAGES, (
            self._capture, self._pre, self.session.invoke, self._post,
            self._other,
        )))
        for index in range(runs):
            marks = [kernel.now]
            for stage, stage_body in stages:
                with probe(kernel, "pipeline", stage) as span:
                    if span is not None:
                        span.meta["iteration"] = index
                    yield from stage_body()
                marks.append(kernel.now)
            self.records.add(
                PipelineRun(
                    *(end - begin for begin, end in zip(marks, marks[1:])),
                    meta={"iteration": index, "target": self.target},
                )
            )
        return self.records

    def execute(self, runs=10, thread_name=None):
        """Spawn the loop and run the simulation until it finishes."""
        thread = self.kernel.spawn(
            self.body(runs), name=thread_name or self.label,
            process=self.process,
        )
        self.kernel.sim.run(until=thread.done)
        return self.records


class BenchmarkCli(Packaging):
    """``benchmark_model`` run over adb: a native process, no UI."""

    context = "benchmark"
    name = "benchmark_cli"
    managed_runtime = False
    interference = InterferenceProfile.benchmark()

    def __init__(self, kernel, model_key, dtype="fp32", target="cpu",
                 threads=4, stdlib="libc++", interference=None,
                 preference=None, faults=None):
        self.stdlib = stdlib
        super().__init__(
            kernel, model_key, dtype, target, threads, interference,
            preference, faults, label=f"{self.name}:{model_key}",
        )

    def _capture(self):
        """Random input generation stands in for data capture."""
        cost = random_input_cost_us(
            self.model.input_spec.numel, self.model.dtype, self.stdlib
        )
        yield Work(cost, label="bench:randgen")

    def _pre(self):
        if self.pre_plan.cost_us > 0:
            yield Work(self.pre_plan.cost_us, label="bench:pre")

    def _post(self):
        if self.post_plan.cost_us > 0:
            yield Work(self.post_plan.cost_us, label="bench:post")


class BenchmarkApp(BenchmarkCli):
    """The TFLite Android benchmark app: same loop, app clothing.

    Runs inside a managed (ART) process with the normal daemon load and
    refreshes its UI after each iteration — closer to an app than the
    CLI, yet still masking data capture and pre-processing (paper
    Fig. 3).
    """

    name = "benchmark_app"
    managed_runtime = True
    interference = InterferenceProfile.app(intensity=0.6)

    def _other(self):
        yield Work(os_params.UI_RENDER_US * 0.4, label="benchapp:ui")


class AndroidApp(Packaging):
    """One app = one model + camera + UI, ready to run N frames.

    Per frame: wait for the camera, convert the bitmap, pre-process in
    managed code, invoke the model, post-process, render. Runs in an
    ART process (GC pauses) alongside the standard daemon population —
    the packaging whose latency profile the paper contrasts against
    benchmarks in Figs. 3, 4 and 11.
    """

    def __init__(self, kernel, model_key, dtype="fp32", target="nnapi",
                 threads=4, source_hw=(480, 640), fps=30.0,
                 interference=None, preference=None, name=None, faults=None):
        self.name = name or f"app:{model_key}"
        super().__init__(
            kernel, model_key, dtype, target, threads, interference,
            preference, faults, label=self.name, source_hw=source_hw,
            fps=fps,
        )
        # Bitmap formatting happens in the camera callback: it is part
        # of the "supporting code around data capture" (§II-A), so its
        # cost is charged to the capture stage, not pre-processing.
        self._capture_conversion_us = sum(
            step.cost_us
            for step in self.pre_plan.steps
            if step.name == "bitmap_convert"
        )
        self._pre_cost_us = self.pre_plan.cost_us - self._capture_conversion_us

    def _capture(self):
        """Camera wait + delivery, or text arrival for language tasks."""
        if self.camera is not None:
            yield from self.camera.capture()
            if self._capture_conversion_us > 0:
                yield Work(self._capture_conversion_us, label="app:yuv2rgb")
        else:
            # Language task: the "capture" is receiving the query string.
            yield Work(os_params.BINDER_CALL_US, label="app:text_input")

    def _pre(self):
        yield Work(self._pre_cost_us, label="app:pre")

    def _post(self):
        yield Work(self.post_plan.cost_us, label="app:post")

    def _other(self):
        """UI thread work after each result (layout + draw + vsync)."""
        yield Work(os_params.UI_RENDER_US, label="app:render")
