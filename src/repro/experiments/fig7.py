"""Fig. 7: the FastRPC call flow and where its time goes.

The paper draws the CPU -> kernel -> DSP round trip, noting the cache
flush required for coherency on the loosely coupled DSP. This
experiment performs one instrumented offload and reports the per-stage
cost decomposition of the channel.
"""

from repro.android import FastRpcChannel, Kernel
from repro.android.fastrpc import call_flow_stages
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim
from repro.models import load_model
from repro.sim import Simulator
from repro.soc import make_soc


def _cold_over_warm(result):
    cold_us, warm_us = result.series["durations_us"]
    return cold_us / warm_us


CLAIMS = (
    Claim("cold_over_warm", "cold > warm", "> 1", _cold_over_warm,
          "the first call pays the one-time DSP process mapping"),
)


@experiment("fig7", claims=CLAIMS)
def run(seed=0, model_key="mobilenet_v1", payload_frames=1):
    sim = Simulator(seed=seed, trace=True)
    soc = make_soc(sim, "sd845", governor_mode="performance")
    kernel = Kernel(sim, soc, enable_dvfs=False)
    channel = FastRpcChannel(kernel, process_id=42)
    model = load_model(model_key, "int8")
    input_bytes = model.input_spec.numel * payload_frames
    compute_us = soc.dsp.graph_time_us(model.ops, "int8")
    durations = []

    def body():
        for _ in range(2):  # cold then warm
            duration = yield from channel.invoke(
                input_bytes, model.output_bytes, compute_us
            )
            durations.append(duration)

    thread = kernel.spawn_on_big(body(), name="offloader")
    sim.run(until=thread.done)

    stats = channel.stats
    stage_costs = [
        ("session_open (cold only)", stats.session_open_us),
        ("user:marshal", stats.marshal_us),
        ("kernel:ioctl round trips", stats.kernel_us),
        ("cache flush/invalidate", stats.cache_flush_us),
        ("driver signalling", stats.signal_us),
        ("dsp queue wait", stats.dsp_queue_us),
        ("axi transfers", stats.transfer_us),
        ("dsp compute", stats.dsp_compute_us),
    ]
    total = sum(cost for _stage, cost in stage_costs)
    rows = [
        (stage, cost / 2.0, cost / total if total else 0.0)
        for stage, cost in stage_costs
    ]
    return ExperimentResult(
        experiment_id="fig7",
        title="FastRPC offload: per-stage cost decomposition (2 calls)",
        headers=("Stage", "mean us/call", "share"),
        rows=rows,
        series={"call_flow": list(call_flow_stages()),
                "durations_us": durations},
        notes=[
            "cold call pays the one-time DSP process mapping",
            f"cold={durations[0]:.0f}us vs warm={durations[1]:.0f}us",
        ],
    )
