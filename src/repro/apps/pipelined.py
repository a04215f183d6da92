"""Pipelined app execution — an optimization the paper motivates.

The TFLite example apps run capture -> pre -> infer -> post
sequentially on one thread, so every stage adds to per-frame latency.
The paper's conclusion calls for "jointly accelerating these seemingly
mundane yet important data processing tasks along with ML execution";
the cheapest software version is overlap: a producer thread captures
and pre-processes frame N+1 while a consumer thread runs inference on
frame N. Throughput then tracks the *slowest* stage instead of the sum.

:class:`PipelinedApp` implements that two-stage software pipeline on the
simulated OS, reusing the camera, plans, and session that
:class:`~repro.apps.packaging.AndroidApp` builds.
"""

from repro.android import params as os_params
from repro.android.thread import WaitFor, Work
from repro.apps.packaging import AndroidApp
from repro.core.measurement import PipelineRun
from repro.sim import Store


class PipelinedApp(AndroidApp):
    """Producer/consumer version of the Android app pipeline."""

    def __init__(self, kernel, model_key, dtype="fp32", target="nnapi"):
        super().__init__(
            kernel, model_key, dtype=dtype, target=target,
            name=f"pipelined:{model_key}",
        )
        self.queue = Store(kernel.sim, name="preprocessed", capacity=2)
        self.producer_thread = None

    def _producer_body(self, frames):
        """Capture + pre-process each frame, push into the stage queue."""
        for _ in range(frames):
            start = self.kernel.now
            frame = yield from self.camera.capture()
            capture_done = self.kernel.now
            yield Work(self.pre_plan.cost_us, label="pipelined:pre")
            self.queue.put(
                {
                    "frame": frame,
                    "enqueued": self.kernel.now,
                    "capture_us": capture_done - start,
                    "pre_us": self.kernel.now - capture_done,
                }
            )

    def _consumer_body(self, frames):
        """Inference + post-processing per queued frame."""
        yield from self.session.prepare()
        for _ in range(frames):
            item = yield WaitFor(self.queue.get())
            infer_start = self.kernel.now
            yield from self.session.invoke()
            infer_done = self.kernel.now
            yield Work(self.post_plan.cost_us, label="pipelined:post")
            yield Work(os_params.UI_RENDER_US, label="pipelined:render")
            done = self.kernel.now
            self.records.add(
                PipelineRun(
                    capture_us=item["capture_us"],
                    pre_us=item["pre_us"],
                    inference_us=infer_done - infer_start,
                    post_us=done - infer_done,
                    # Time the frame waited in the stage queue: pipeline
                    # latency the sequential app does not have.
                    other_us=infer_start - item["enqueued"],
                    meta={"pipelined": True, "completed_at": done},
                )
            )

    def execute(self, frames=20):
        """Run producer and consumer concurrently; returns records.

        Also records achieved throughput in ``records.runs[i].meta``.
        """
        self.start()
        producer = self.process.spawn(
            self._producer_body(frames), "producer"
        )
        consumer = self.process.spawn(
            self._consumer_body(frames), "consumer"
        )
        self.producer_thread = producer
        sim = self.kernel.sim
        sim.run(until=sim.all_of([producer.done, consumer.done]))
        if len(self.records.runs) >= 2:
            # Steady-state throughput: frames completed per second
            # between the first and last completion, which excludes the
            # one-time session preparation.
            first = self.records.runs[0].meta["completed_at"]
            last = self.records.runs[-1].meta["completed_at"]
            throughput_fps = (len(self.records.runs) - 1) / (
                (last - first) / 1e6
            )
            for run in self.records.runs:
                run.meta["throughput_fps"] = throughput_fps
        elif self.records.runs:
            self.records.runs[0].meta["throughput_fps"] = 0.0
        return self.records
