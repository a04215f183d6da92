"""Thermal model with throttling.

The paper's methodology section (III-D) notes that mobile SoCs are
"particularly susceptible to thermal throttling" and that benchmarks were
only started once the package cooled to its ~33 °C idle temperature. This
model reproduces that: sustained load raises die temperature along a
first-order (exponential) trajectory; above the throttle trip point the
big cluster's capacity is progressively reduced. The harness follows the
authors' protocol by starting every device at its idle temperature, and
:meth:`ThermalModel.cooldown_time_us` says how long a warm die idles to
get back there.
"""

import math

from repro.sim import units


class ThermalModel:
    """First-order thermal RC model driving cluster throttle factors."""

    def __init__(
        self,
        sim,
        clusters,
        idle_celsius=33.0,
        full_load_celsius=85.0,
        time_constant_s=25.0,
        throttle_trip_celsius=70.0,
        throttle_floor=0.6,
    ):
        self.sim = sim
        self.clusters = list(clusters)
        self.idle_celsius = idle_celsius
        self.full_load_celsius = full_load_celsius
        self.time_constant_s = time_constant_s
        self.throttle_trip_celsius = throttle_trip_celsius
        self.throttle_floor = throttle_floor
        self.temperature = idle_celsius
        self._last_update = sim.now

    def update(self, load_fraction):
        """Advance temperature given average load since the last update.

        ``load_fraction`` in [0, 1] selects the steady-state temperature
        the die is relaxing towards; the exponential step uses the elapsed
        simulated time.
        """
        now = self.sim.now
        dt_s = units.to_seconds(now - self._last_update)
        self._last_update = now
        if dt_s <= 0:
            return self.temperature
        target = self.idle_celsius + load_fraction * (
            self.full_load_celsius - self.idle_celsius
        )
        alpha = 1.0 - math.exp(-dt_s / self.time_constant_s)
        self.temperature += (target - self.temperature) * alpha
        self._apply_throttle()
        return self.temperature

    def _apply_throttle(self):
        """Linear capacity derate between trip point and max temperature."""
        if self.temperature <= self.throttle_trip_celsius:
            factor = 1.0
        else:
            over = self.temperature - self.throttle_trip_celsius
            span = self.full_load_celsius - self.throttle_trip_celsius
            derate = min(1.0, over / span)
            factor = 1.0 - derate * (1.0 - self.throttle_floor)
        for cluster in self.clusters:
            cluster.thermal_factor = factor
        if self.sim.trace is not None:
            self.sim.trace.count("soc_temperature", self.temperature)

    @property
    def is_throttling(self):
        return self.temperature > self.throttle_trip_celsius

    def cooldown_time_us(self, margin_celsius=1.0):
        """Idle time needed to relax to within ``margin`` of idle temp."""
        gap = self.temperature - self.idle_celsius
        if gap <= margin_celsius:
            return 0.0
        seconds = self.time_constant_s * math.log(gap / margin_celsius)
        return units.seconds(seconds)
