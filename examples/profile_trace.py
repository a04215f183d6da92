#!/usr/bin/env python
"""Profile a pipeline and export a Chrome trace (the Fig. 6 workflow).

Runs quantized EfficientNet-Lite0 under the three execution modes the
paper profiles with the Snapdragon Profiler, prints terminal utilization
strips per core plus the observability layer's self-time rollup, and
writes Chrome trace-event JSON files you can open at chrome://tracing
or ui.perfetto.dev. The full trace-analysis workflow (what each track
and label means, how to read the AI tax off the timeline) is documented
in docs/tracing.md.

Run:  python examples/profile_trace.py [output_dir]
"""

import pathlib
import sys

from repro.observability import (
    record_trace,
    summarize_trace,
    write_chrome_trace,
)
from repro.viz import profile_strips

SCENARIOS = ("fig6-cpu", "fig6-hexagon", "fig6-nnapi")


def main(output_dir="."):
    output = pathlib.Path(output_dir)
    for scenario in SCENARIOS:
        with record_trace(scenario) as session:
            sim, soc, trace = session.sim, session.soc, session.sim.trace
            target = session.config.target
            tracks = [core.name for core in soc.big_cores] + ["cdsp"]
            timelines = {
                track: trace.timeline(track, bucket_us=10_000.0)
                for track in tracks
            }
            print(f"-- {target} ({sim.now / 1000:.0f} ms simulated) --")
            print(profile_strips(timelines, order=tracks, width=60))
            print(
                f"   migrations={trace.counter_total('migration')} "
                f"ctx_switches={trace.counter_total('ctx_switch')} "
                f"axi={trace.counter_total('axi_bytes') / 1e6:.2f} MB"
            )
            print(summarize_trace(trace, tracks=("pipeline",)).render(top=4))
            path = output / f"trace_{target}.json"
            events = write_chrome_trace(
                trace, path, process_name=f"repro:{target}"
            )
            print(f"   wrote {path} ({events} events)\n")
    print("Open the JSON files at chrome://tracing or ui.perfetto.dev")
    print("(docs/tracing.md walks through reading them)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
