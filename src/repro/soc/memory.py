"""Memory system: DRAM, AXI fabric, and cache maintenance costs.

Offloading a buffer to the loosely coupled DSP requires (a) cache
clean/invalidate so the DSP sees the CPU's writes (the "cache flush" in
the paper's Fig. 7 FastRPC flow) and (b) a transfer across the AXI
fabric. Both scale with buffer size. AXI traffic is also counted so the
Fig. 6 profile can show the traffic spike during Hexagon execution.
"""

from repro.sim import units
from repro.soc import params


class MemorySystem:
    """Bandwidth/cost model plus AXI traffic accounting."""

    def __init__(self, sim, dram_gbps=None, axi_gbps=None):
        self.sim = sim
        self.dram_gbps = dram_gbps or params.DRAM_BANDWIDTH_GBPS
        self.axi_gbps = axi_gbps or params.AXI_BANDWIDTH_GBPS
        #: Bytes moved across the AXI fabric so far.
        self.axi_bytes = 0
        #: EnergyMeter attached by the owning Soc (may stay None).
        self.energy = None

    # one GB/s == 1e9 bytes / 1e6 us == 1e3 bytes/us
    @staticmethod
    def _time_us(nbytes, gbps):
        return nbytes / units.per_us_rate(gbps)

    def dram_copy_us(self, nbytes):
        """Time for a CPU-side bulk copy of ``nbytes``."""
        if self.energy is not None:
            self.energy.add_dram_transfer(nbytes)
        return self._time_us(nbytes, self.dram_gbps)

    def axi_transfer_us(self, nbytes):
        """Time to move ``nbytes`` between CPU memory and the DSP."""
        self.axi_bytes += nbytes
        if self.energy is not None:
            self.energy.add_dram_transfer(nbytes)
        if self.sim.trace is not None:
            self.sim.trace.count("axi_bytes", nbytes)
        return self._time_us(nbytes, self.axi_gbps)

    def cache_flush_us(self, nbytes):
        """Clean+invalidate ``nbytes`` of cache lines by virtual address."""
        return params.CACHE_FLUSH_BASE_US + self._time_us(
            nbytes, params.CACHE_FLUSH_GBPS
        )
