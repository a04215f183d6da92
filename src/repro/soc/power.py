"""Power and energy accounting.

The paper's opening motivation is that "AI processing on general-purpose
mobile processors is inefficient in terms of energy and power". This
module lets the reproduction quantify that: every component reports
power draw, the :class:`EnergyMeter` integrates it, and experiments can
compare joules-per-inference across CPU/GPU/DSP placements.

CPU dynamic power follows the classic ``P = C * V^2 * f`` with voltage
roughly proportional to frequency, i.e. ``P ~ (f/fmax)^3 * P_max`` per
busy core. Accelerators are modelled with flat busy powers — their DVFS
is much coarser. Numbers are representative of 2018-era 10 nm parts.
"""

from dataclasses import dataclass, field

from repro.sim import units

#: Dynamic power of one fully-busy core at the top OPP (watts).
BIG_CORE_BUSY_W = 1.9
LITTLE_CORE_BUSY_W = 0.35
#: Leakage + fabric share attributed per idle-but-online core.
CORE_IDLE_W = 0.015
#: Accelerator busy powers (watts).
GPU_BUSY_W = 2.4
DSP_BUSY_W = 0.75
#: DRAM energy per byte moved (picojoules) — LPDDR4X ballpark.
DRAM_PJ_PER_BYTE = 60.0


@dataclass
class EnergyMeter:
    """Cumulative per-component energy in microjoules.

    Accelerators and DRAM call the ``add_*`` hooks. CPU slices are
    booked by the scheduler's core loops (:mod:`repro.android.kernel`),
    which add each slice's energy to ``cpu_uj`` and then to its label's
    ``by_label`` entry. Analyses snapshot totals around a measured
    region and difference them.
    """

    cpu_uj: float = 0.0
    gpu_uj: float = 0.0
    dsp_uj: float = 0.0
    dram_uj: float = 0.0
    #: Per-thread-label attribution of CPU energy.
    by_label: dict = field(default_factory=dict)

    @property
    def total_uj(self):
        return self.cpu_uj + self.gpu_uj + self.dsp_uj + self.dram_uj

    # Watts * microseconds == microjoules (units.uj_from_w_us).

    @staticmethod
    def core_busy_watts(core):
        """Dynamic power of ``core`` fully busy at its top OPP (watts).

        A core's cluster and perf index never change, so each scheduler
        core loop fixes this once and prices every slice it runs at
        ``busy_watts * fraction ** 3``, where ``fraction`` is the
        cluster's ``current_khz / max_khz`` at the slice's end.
        """
        if core.cluster.name == "little" or core.perf_index < 0.6:
            return LITTLE_CORE_BUSY_W
        return BIG_CORE_BUSY_W

    def add_gpu_busy(self, duration_us):
        energy = units.uj_from_w_us(GPU_BUSY_W, duration_us)
        self.gpu_uj += energy
        return energy

    def add_dsp_busy(self, duration_us):
        energy = units.uj_from_w_us(DSP_BUSY_W, duration_us)
        self.dsp_uj += energy
        return energy

    def add_dram_transfer(self, nbytes):
        energy = nbytes * DRAM_PJ_PER_BYTE / 1e6  # pJ -> uJ
        self.dram_uj += energy
        return energy

    def snapshot(self):
        """Immutable totals for differencing around a measured region."""
        return (self.cpu_uj, self.gpu_uj, self.dsp_uj, self.dram_uj)

    def since(self, snapshot):
        """Per-component deltas (uJ) since a :meth:`snapshot`."""
        cpu, gpu, dsp, dram = snapshot
        return {
            "cpu_uj": self.cpu_uj - cpu,
            "gpu_uj": self.gpu_uj - gpu,
            "dsp_uj": self.dsp_uj - dsp,
            "dram_uj": self.dram_uj - dram,
            "total_uj": self.total_uj - (cpu + gpu + dsp + dram),
        }


def idle_floor_uj(core_count, duration_us):
    """Baseline leakage for ``core_count`` online cores over a window."""
    return units.uj_from_w_us(CORE_IDLE_W * core_count, duration_us)
