"""Unit helpers: explicit, greppable conversions.

The simulator's clock counts **microseconds**; the paper reports
latencies in milliseconds, per-element cost rates are calibrated in
nanoseconds, and the energy model meters microjoules. These helpers
keep every conversion explicit and named for its direction instead of
scattering ``* 1000`` / ``/ 1000.0`` literals through the code — a
bare 1000 does not say which way it converts, and the semcheck
``magic-conversion`` rule (``python -m repro semcheck``) blocks it
outside this module.

Helpers are written so each replaces its literal form with the *same*
floating-point operation (``to_ms(x)`` is exactly ``x / 1000.0``), so
swapping a call site never shifts a figure by an ulp.
"""

US = 1.0
MS = 1_000.0
SECOND = 1_000_000.0

#: Nanoseconds per microsecond (divide by it to go ns -> us).
NS_PER_US = 1_000.0

#: Microjoules per millijoule (divide by it to go uJ -> mJ).
UJ_PER_MJ = 1_000.0

#: Milliseconds per second (for frame-time -> FPS math).
MS_PER_SECOND = 1_000.0

#: A rate in giga-ops *per second* equals this many ops *per
#: microsecond* (GFLOP/s x 1e9 ops / 1e6 us). Multiply a GFLOP/s or
#: GB/s rate by it to get ops or bytes per simulator tick.
GIGA_PER_S_TO_PER_US = 1_000.0


def ms(value):
    """Convert milliseconds to simulator microseconds."""
    return value * MS


def us(value):
    """Identity helper so call sites can be explicit about units."""
    return value * US


def ns(value):
    """Convert nanoseconds to simulator microseconds."""
    return value / NS_PER_US


def seconds(value):
    """Convert seconds to simulator microseconds."""
    return value * SECOND


def to_ms(value_us):
    """Convert simulator microseconds to milliseconds for reporting."""
    return value_us / MS


def to_us(value_us):
    """Identity helper: the value is already in simulator microseconds."""
    return value_us * US


def to_ns(value_us):
    """Convert simulator microseconds to nanoseconds."""
    return value_us * NS_PER_US


def to_seconds(value_us):
    """Convert simulator microseconds to seconds for reporting."""
    return value_us / SECOND


def to_mj(value_uj):
    """Convert metered microjoules to millijoules for reporting."""
    return value_uj / UJ_PER_MJ


def fps_from_ms(frame_ms):
    """Frames per second for a frame time in milliseconds."""
    return MS_PER_SECOND / frame_ms


def uj_from_w_us(power_watts, duration_us):
    """Energy in microjoules: watts times busy microseconds.

    1 W = 1 J/s = 1 uJ/us, so the product is already microjoules —
    this helper exists to make that dimension change explicit.
    """
    return power_watts * duration_us


def per_us_rate(rate_giga_per_s):
    """A giga-per-second rate as plain units per microsecond.

    GFLOP/s and GB/s rates both scale by 1e9/1e6: dividing flops (or
    bytes) by the result yields simulator microseconds.
    """
    return rate_giga_per_s * GIGA_PER_S_TO_PER_US
