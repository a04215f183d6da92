"""The assembled SoC."""


class Soc:
    """A simulated system-on-chip: CPU clusters + GPU + DSP + memory.

    Built by :func:`repro.soc.catalog.make_soc`; holds no behaviour of its
    own beyond convenient lookups. Scheduling logic lives in
    :mod:`repro.android`, delegation logic in :mod:`repro.frameworks`.
    """

    def __init__(self, sim, spec, clusters, gpu, dsp, memory, thermal,
                 energy=None):
        from repro.soc.power import EnergyMeter

        self.sim = sim
        self.spec = spec
        self.clusters = clusters
        self.gpu = gpu
        self.dsp = dsp
        self.memory = memory
        self.thermal = thermal
        self.energy = energy if energy is not None else EnergyMeter()
        memory.energy = self.energy
        # Cluster membership is fixed at assembly; precompute the hot
        # lookups the scheduler performs on every slice (they were
        # rebuilt per call and showed up in self-time profiles).
        self._cores = [core for cluster in clusters for core in cluster.cores]
        self._core_by_id = {core.core_id: core for core in self._cores}
        self._big_cluster = max(clusters, key=lambda c: c.perf_index)
        self._little_cluster = min(clusters, key=lambda c: c.perf_index)

    @property
    def cores(self):
        """All cores, little cluster first (Linux cpu numbering style)."""
        return self._cores

    @property
    def big_cluster(self):
        return self._big_cluster

    @property
    def big_cores(self):
        return self._big_cluster.cores

    @property
    def little_cores(self):
        return self._little_cluster.cores

    def core(self, core_id):
        try:
            return self._core_by_id[core_id]
        except KeyError:
            raise KeyError(f"no core with id {core_id}") from None

    def close(self):
        """Drop each core's cluster and thread back-references.

        ``CpuCluster.cores`` and ``CpuCore.cluster`` point at each other,
        and a core's last dispatched thread reaches the kernel and so this
        SoC; without this the finished device waits for the cyclic
        collector.
        """
        for core in self._cores:
            core.cluster = None
            core.current_thread = None

    def __repr__(self):
        return (
            f"<Soc {self.spec.soc_name}: {len(self.cores)} cores, "
            f"{self.gpu.name}, {self.dsp.name}>"
        )
