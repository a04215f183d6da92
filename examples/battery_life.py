#!/usr/bin/env python
"""Battery-life estimation from the energy meter.

The paper's opening claim — general-purpose processors are power-
inefficient for AI — has a user-visible consequence: how long a phone
battery survives a continuously-running ML feature. This example runs a
MobileNet classification workload at 30 fps under several placements,
meters the SoC energy, and converts it to hours on a typical battery.

Run:  python examples/battery_life.py
"""

from repro.apps import make_session
from repro.apps.harness import rig
from repro.core.report import render_table
from repro.models import load_model
from repro.soc.power import idle_floor_uj

#: Pixel-3-class battery: 2915 mAh at 3.85 V nominal.
BATTERY_WH = 2.915 * 3.85
#: Non-SoC system floor while the screen is on (display, radios), watts.
SYSTEM_FLOOR_W = 1.1
TARGET_FPS = 30.0


def measure_soc_power(target, dtype, frames=30, seed=0):
    """Average SoC power (W) for the inference workload at 30 fps."""
    with rig(seed=seed) as (sim, soc, kernel):
        model = load_model("mobilenet_v1", dtype)
        session = make_session(kernel, model, target=target)
        frame_interval_us = 1e6 / TARGET_FPS

        def body():
            from repro.android.thread import Sleep

            yield from session.prepare()
            while kernel.now < frames * frame_interval_us:
                start = kernel.now
                yield from session.invoke()
                remaining = frame_interval_us - (kernel.now - start)
                if remaining > 0:
                    yield Sleep(remaining)

        thread = kernel.spawn_on_big(body(), name="workload")
        snapshot = soc.energy.snapshot()
        start_us = sim.now
        sim.run(until=thread.done)
        window_us = sim.now - start_us
        active_uj = soc.energy.since(snapshot)["total_uj"]
        idle_uj = idle_floor_uj(len(soc.cores), window_us)
        return (active_uj + idle_uj) / window_us  # uJ/us == W


def main():
    rows = []
    for label, target, dtype in (
        ("cpu x4 [fp32]", "cpu", "fp32"),
        ("cpu x4 [int8]", "cpu", "int8"),
        ("gpu [fp16]", "gpu", "fp32"),
        ("hexagon [int8]", "hexagon", "int8"),
        ("snpe-dsp [int8]", "snpe-dsp", "int8"),
    ):
        soc_w = measure_soc_power(target, dtype)
        total_w = soc_w + SYSTEM_FLOOR_W
        hours = BATTERY_WH / total_w
        rows.append((label, soc_w, total_w, hours))
    print(
        render_table(
            ("placement", "SoC W", "system W", "battery hours"),
            rows,
            title=(
                "Continuous 30 fps MobileNet classification on a "
                "Pixel-3-class battery"
            ),
        )
    )
    best = max(rows, key=lambda row: row[3])
    worst = min(rows, key=lambda row: row[3])
    print(
        f"\nPlacement changes battery life {worst[3]:.1f}h -> {best[3]:.1f}h "
        f"({best[3] / worst[3]:.1f}x): the paper's §I motivation, in hours."
    )


if __name__ == "__main__":
    main()
