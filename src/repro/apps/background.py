"""Background inference load for the multi-tenancy study (Figs. 9/10).

The paper schedules an increasing number of inference benchmarks in the
background — through the NNAPI Hexagon path to contend for the DSP
(Fig. 9), or on the CPU to contend with the app's capture/pre-processing
threads (Fig. 10) — while a foreground image-classification app keeps
running.
"""

from repro.android import AppProcess
from repro.apps.sessions import make_session
from repro.models import load_model


def _job_body(session):
    yield from session.prepare()
    while True:
        yield from session.invoke()


def start_background_inferences(kernel, count, target="nnapi",
                                model_key="mobilenet_v1", dtype="int8",
                                threads=1):
    """Spawn ``count`` looping inference jobs; returns their threads.

    ``target="nnapi"`` with a quantized MobileNet keeps each job on the
    DSP (serializing with the app's inferences); ``target="cpu"`` keeps
    them on the CPU where they steal cycles from capture/pre-processing.
    Each job loops forever: stop the simulation by time or by the
    foreground thread's completion event.
    """
    if count < 0:
        raise ValueError(f"negative background job count: {count}")
    threads_spawned = []
    for index in range(count):
        model = load_model(model_key, dtype)
        process = AppProcess(kernel, f"bg{index}", managed_runtime=False)
        session = make_session(
            kernel, model, target=target, threads=threads
        )
        thread = kernel.spawn(
            _job_body(session),
            name=f"bg{index}:{model_key}",
            process=process,
            nice=0,
        )
        threads_spawned.append(thread)
    return threads_spawned
