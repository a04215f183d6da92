"""Operating performance points and DVFS governors.

Mobile CPU clusters change frequency under a kernel governor. The
schedutil-style governor here tracks recent cluster utilization and picks
the lowest OPP whose capacity covers ``util * headroom``. Frequency ramping
is one of the run-to-run variability sources the paper highlights: an app
that idles between camera frames keeps dropping to low OPPs and pays a
ramp-up penalty at each burst, while a tight benchmark loop stays pinned
at the top OPP.
"""

from bisect import bisect_left
from dataclasses import dataclass, field


@dataclass(frozen=True)
class OppTable:
    """An ordered table of operating points in kHz."""

    frequencies_khz: tuple

    def __post_init__(self):
        if not self.frequencies_khz:
            raise ValueError("OPP table must not be empty")
        if list(self.frequencies_khz) != sorted(self.frequencies_khz):
            raise ValueError("OPP table must be sorted ascending")
        # Governor lookups run every sampling window; cache the level
        # index so step_towards avoids a linear scan per update. The
        # table is frozen, hence object.__setattr__.
        index_by_khz = {}
        for index, freq in enumerate(self.frequencies_khz):
            # First occurrence wins, matching list.index on a table
            # with (pathological) duplicate levels.
            index_by_khz.setdefault(freq, index)
        object.__setattr__(self, "_index_by_khz", index_by_khz)

    @property
    def min_khz(self):
        return self.frequencies_khz[0]

    @property
    def max_khz(self):
        return self.frequencies_khz[-1]

    def for_capacity(self, fraction):
        """Lowest OPP providing at least ``fraction`` of max capacity."""
        levels = self.frequencies_khz
        target = max(0.0, min(1.0, fraction)) * levels[-1]
        # Binary search for the first level >= target; target never
        # exceeds the top OPP, so the index is always in range.
        return levels[bisect_left(levels, target)]

    def ceiling_for(self, fraction):
        """Highest OPP not exceeding ``fraction`` of max capacity."""
        limit = max(0.0, min(1.0, fraction)) * self.max_khz
        candidates = [f for f in self.frequencies_khz if f <= limit]
        return candidates[-1] if candidates else self.min_khz

    def nearest(self, khz):
        """The level closest to ``khz``; the lower one on a tie."""
        return min(self.frequencies_khz, key=lambda f: abs(f - khz))

    def step_towards(self, current, target):
        """Move one OPP step from ``current`` towards ``target``.

        Real governors slew over several scheduler ticks rather than
        jumping straight to the target frequency.
        """
        levels = self.frequencies_khz
        index = self._index_by_khz.get(current)
        if index is None:
            current = self.nearest(current)
            index = self._index_by_khz[current]
        if target > current and index + 1 < len(levels):
            return levels[index + 1]
        if target < current and index > 0:
            return levels[index - 1]
        return current


@dataclass
class DvfsGovernor:
    """schedutil-style governor state for one cluster.

    ``update()`` is called periodically with the cluster's utilization over
    the last window; it returns the new frequency. ``performance`` mode
    pins the top OPP (the paper's benchmarks effectively run this way
    because their tight loops saturate the cluster).
    """

    opp: OppTable
    mode: str = "schedutil"
    headroom: float = 1.25
    #: Frequency ceiling as a fraction of the top OPP. NNAPI's
    #: SUSTAINED_SPEED preference caps boost to avoid throttle cycling.
    max_fraction: float = 1.0
    current_khz: int = field(default=None)

    def __post_init__(self):
        if self.mode not in ("schedutil", "performance", "powersave"):
            raise ValueError(f"unknown governor mode: {self.mode}")
        if self.current_khz is None:
            self.current_khz = (
                self.opp.max_khz if self.mode == "performance" else self.opp.min_khz
            )

    def update(self, utilization):
        """Advance governor state given window utilization in [0, 1]."""
        if self.mode == "performance":
            self.current_khz = self.opp.max_khz
        elif self.mode == "powersave":
            self.current_khz = self.opp.min_khz
        else:
            # OppTable.for_capacity, then one step_towards, in one frame:
            # this runs every governor window on every cluster. The clamp
            # to [0, 1] is for_capacity's max(0.0, min(1.0, fraction)),
            # written as comparisons.
            opp = self.opp
            levels = opp.frequencies_khz
            fraction = utilization * self.headroom
            fraction = fraction if fraction < 1.0 else 1.0
            fraction = fraction if fraction > 0.0 else 0.0
            target = levels[bisect_left(levels, fraction * levels[-1])]
            current = self.current_khz
            index = opp._index_by_khz.get(current)
            if index is None:
                current = opp.nearest(current)
                index = opp._index_by_khz[current]
            if target > current and index + 1 < len(levels):
                current = levels[index + 1]
            elif target < current and index > 0:
                current = levels[index - 1]
            self.current_khz = current
        if self.max_fraction < 1.0:
            self.current_khz = min(
                self.current_khz, self.opp.ceiling_for(self.max_fraction)
            )
        return self.current_khz

    @property
    def speed_fraction(self):
        """Current frequency as a fraction of the top OPP."""
        return self.current_khz / self.opp.max_khz
