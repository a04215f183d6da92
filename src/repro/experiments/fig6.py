"""Fig. 6: Snapdragon-Profiler-style execution profile.

The paper profiles quantized EfficientNet-Lite0 under three execution
modes and annotates: (1) cores 4-7 pinned at 100% for the 4-thread CPU
run, (2) cDSP at 100% + AXI traffic for the Hexagon delegate, (3) a
brief cDSP spike then single-threaded CPU execution for NNAPI, with
(4) frequent CPU migrations. This experiment regenerates the raw
profile: per-track utilization timelines plus counter totals.
"""

from repro.apps import PipelineConfig
from repro.apps.harness import run_pipeline_with_rig
from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim, cell, ratio
from repro.sim import units

TARGETS = ("cpu", "hexagon", "nnapi")


def _profile(target, runs, seed, model_key, dtype, bucket_ms):
    config = PipelineConfig(
        model_key=model_key,
        dtype=dtype,
        context="cli",
        target=target,
        runs=runs,
        seed=seed,
        trace=True,
    )
    records, sim, soc, kernel, _packaging = run_pipeline_with_rig(config)
    trace = sim.trace
    big_tracks = [core.name for core in soc.big_cores]
    big_util = sum(trace.utilization(track) for track in big_tracks) / 4
    busiest = max(trace.utilization(track) for track in big_tracks)
    profile = {
        "target": target,
        "big_util": big_util,
        "busiest_core_util": busiest,
        "cdsp_util": trace.utilization("cdsp"),
        "cdsp_spans": len(trace.spans_on("cdsp")),
        "migrations": trace.counter_total("migration"),
        "ctx_switches": trace.counter_total("ctx_switch"),
        "axi_mb": trace.counter_total("axi_bytes") / 1e6,
        "wall_ms": units.to_ms(sim.now),
        "timelines": {
            track: trace.timeline(track, units.ms(bucket_ms))
            for track in big_tracks + ["cdsp"]
        },
    }
    # Inference thread core residency: how many distinct cores the
    # benchmark thread bounced across (annotation 3/4 of the figure).
    subject = [
        thread for thread in kernel.threads if thread.name.startswith("cli:")
    ]
    if subject:
        profile["subject_cores"] = len(subject[0].stats.cores_used)
        profile["subject_migrations"] = subject[0].stats.migrations
    return profile


CLAIMS = (
    Claim("cpu_big_util", "cores 4-7 at 100%", "> 0.5",
          cell("Target", "big CPU util", "cpu"),
          "(1) the 4-thread CPU run keeps the big cores busy"),
    Claim("cpu_dsp_util", "idle", "= 0",
          cell("Target", "cDSP util", "cpu"),
          "(1) the CPU run leaves the cDSP idle"),
    Claim("hexagon_dsp_util", "cDSP at 100%", "> 0.2",
          cell("Target", "cDSP util", "hexagon"),
          "(2) the Hexagon delegate keeps the cDSP busy"),
    Claim("hexagon_axi_mb", "AXI traffic", "> 0",
          cell("Target", "AXI MB", "hexagon"),
          "(2) the Hexagon delegate moves data over AXI"),
    Claim("hexagon_over_cpu_big_util", "CPU mostly idle", "< 1",
          ratio("Target", "big CPU util", "hexagon", "cpu"),
          "(2) the CPU is mostly idle under the Hexagon delegate"),
    Claim("nnapi_dsp_spans", "brief cDSP spike", ">= 1",
          cell("Target", "cDSP spans", "nnapi"),
          "(3) NNAPI touches the cDSP briefly at the start..."),
    Claim("nnapi_dsp_util", "cDSP idle", "< 0.05",
          cell("Target", "cDSP util", "nnapi"),
          "(3) ...and then runs on the CPU"),
    Claim("nnapi_busiest_core_util", "single-threaded", "> 0.8",
          cell("Target", "busiest core util", "nnapi"),
          "(3) NNAPI's fallback saturates a single core..."),
    Claim("nnapi_big_util", "single-threaded", "< 0.6",
          cell("Target", "big CPU util", "nnapi"),
          "(3) ...while the big cluster as a whole stays lightly loaded"),
    Claim("nnapi_over_cpu_migrations", "frequent migrations", "> 1",
          ratio("Target", "migrations", "nnapi", "cpu"),
          "(4) NNAPI's thread migrates between cores frequently"),
    Claim("nnapi_over_cpu_wall", "far longer", "> 3",
          ratio("Target", "wall ms", "nnapi", "cpu"),
          "NNAPI's run takes far longer than the CPU run"),
)


@experiment("fig6", claims=CLAIMS, bench={"runs": 6})
def run(runs=8, seed=0, model_key="efficientnet_lite0", dtype="int8",
        bucket_ms=10.0):
    headers = (
        "Target", "big CPU util", "busiest core util", "cDSP util",
        "cDSP spans", "migrations", "ctx switches", "AXI MB", "wall ms",
    )
    rows = []
    series = {}
    for target in TARGETS:
        profile = _profile(target, runs, seed, model_key, dtype, bucket_ms)
        rows.append(
            (
                target,
                profile["big_util"],
                profile["busiest_core_util"],
                profile["cdsp_util"],
                profile["cdsp_spans"],
                profile["migrations"],
                profile["ctx_switches"],
                profile["axi_mb"],
                profile["wall_ms"],
            )
        )
        for track, timeline in sorted(profile["timelines"].items()):
            series[f"{target}:{track}"] = timeline
    return ExperimentResult(
        experiment_id="fig6",
        title="Execution profile: CPU vs Hexagon delegate vs NNAPI",
        headers=headers,
        rows=rows,
        series=series,
        notes=[
            "cpu: big cores busy, no cDSP activity",
            "hexagon: cDSP busy with AXI traffic, CPU mostly idle",
            "nnapi: brief cDSP probe spike, then single-threaded CPU "
            "with migrations (the paper's annotations 3 and 4)",
        ],
    )
