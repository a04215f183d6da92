"""CPU cores and big.LITTLE clusters.

A :class:`CpuCore` executes work measured in *reference microseconds*
(see :mod:`repro.soc.params`): the instantaneous execution rate is
``perf_index * governor.speed_fraction * thermal_factor`` reference
seconds per wall second. Scheduling of threads onto cores lives in
:mod:`repro.android.kernel`; this module only models capability.
"""

from dataclasses import dataclass, field

from repro.soc.frequency import DvfsGovernor, OppTable


@dataclass
class CpuCore:
    """One CPU core inside a cluster."""

    core_id: int
    cluster: "CpuCluster"
    #: Execution rate relative to the reference core at max frequency.
    perf_index: float

    #: Thread currently dispatched here (owned by the scheduler).
    current_thread: object = field(default=None, repr=False)
    #: Accumulated busy reference-us (for utilization accounting).
    busy_us: float = 0.0

    @property
    def name(self):
        return f"cpu{self.core_id}"


@dataclass
class CpuCluster:
    """A homogeneous group of cores sharing an OPP table and governor."""

    name: str
    perf_index: float
    opp: OppTable
    core_count: int
    first_core_id: int = 0
    governor_mode: str = "schedutil"
    #: Multiplier applied by the thermal model when throttling (<= 1.0).
    thermal_factor: float = 1.0

    def __post_init__(self):
        self.governor = DvfsGovernor(self.opp, mode=self.governor_mode)
        self.cores = [
            CpuCore(core_id=self.first_core_id + i, cluster=self, perf_index=self.perf_index)
            for i in range(self.core_count)
        ]
