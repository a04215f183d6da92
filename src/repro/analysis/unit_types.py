"""Unit typing for the simulation DSL's name-suffix convention.

The engine clock counts **microseconds**; the paper reports
milliseconds; energy meters count microjoules; clocks are megahertz;
busy powers are watts. The tree encodes the unit of nearly every
quantity in its name — ``dsp_queue_us``, ``total_ms``, ``per_char_ns``,
``max_freq_mhz``, ``total_uj``, ``busy_watts``, ``ambient_celsius`` —
which makes units *statically inferable*: a suffix is a type annotation
the checker can read.

This module is the type system behind the semcheck units pass
(:mod:`repro.analysis.semcheck`): the suffix table, the dimension each
unit belongs to, the products that change dimension (watts times
microseconds is microjoules), the conversion helpers of
:mod:`repro.sim.units` with their argument/return units, and the
externally-declared signatures (``Simulator.timeout(delay)`` is
microseconds, per its docstring, and is checked as such).
"""

from dataclasses import dataclass

#: Dimension names (two units clash only within one dimension; a
#: microsecond divided by a microjoule is a legitimate derived rate).
TIME = "time"
FREQUENCY = "frequency"
ENERGY = "energy"
POWER = "power"
TEMPERATURE = "temperature"


@dataclass(frozen=True)
class Unit:
    """One inferable unit: suffix token, dimension, display name."""

    id: str
    dimension: str
    description: str


UNITS = (
    Unit("us", TIME, "microseconds (the simulator clock)"),
    Unit("ms", TIME, "milliseconds (the paper's reporting unit)"),
    Unit("ns", TIME, "nanoseconds (per-element cost rates)"),
    Unit("s", TIME, "seconds"),
    Unit("mhz", FREQUENCY, "megahertz"),
    Unit("ghz", FREQUENCY, "gigahertz"),
    Unit("uj", ENERGY, "microjoules (the energy-meter unit)"),
    Unit("mj", ENERGY, "millijoules"),
    Unit("watts", POWER, "watts (busy powers)"),
    Unit("celsius", TEMPERATURE, "degrees Celsius"),
)

UNITS_BY_ID = {unit.id: unit for unit in UNITS}

#: Suffix tokens that actually mark units on names. ``_s`` is excluded:
#: it is too common as a non-unit suffix to infer from safely, and power
#: is spelled ``_watts`` because ``_w`` means a width (``crop_w``,
#: ``target_w``) in the processing code.
_SUFFIX_UNITS = (
    "us", "ms", "ns", "mhz", "ghz", "uj", "mj", "watts", "celsius",
)


def suffix_unit(name):
    """Unit id inferred from ``name``'s suffix, or ``None``.

    ``dsp_queue_us`` -> ``"us"``; a bare ``ns`` or ``us`` counts too
    (idiomatic for tight per-element loops); ``bonus`` does not —
    only an underscore-delimited trailing token infers.
    """
    if name in _SUFFIX_UNITS:
        return name
    for token in _SUFFIX_UNITS:
        if name.endswith("_" + token):
            return token
    return None


def same_dimension(unit_a, unit_b):
    """Whether two unit ids share a dimension (so mixing them clashes)."""
    info_a, info_b = UNITS_BY_ID.get(unit_a), UNITS_BY_ID.get(unit_b)
    return (
        info_a is not None
        and info_b is not None
        and info_a.dimension == info_b.dimension
    )


#: Products of two units that change dimension: 1 W = 1 J/s, so watts
#: times microseconds are microjoules and watts times milliseconds are
#: millijoules. Any other product of two units is unknown.
PRODUCT_UNITS = {
    ("watts", "us"): "uj",
    ("watts", "ms"): "mj",
}


def product_unit(unit_a, unit_b):
    """Unit of ``unit_a * unit_b``, in either order, or ``None``."""
    product = PRODUCT_UNITS.get((unit_a, unit_b))
    if product is None:
        product = PRODUCT_UNITS.get((unit_b, unit_a))
    return product


#: ``repro.sim.units`` converters: callable name -> (argument unit,
#: return unit). ``None`` argument unit means "any number" (the
#: dimensionless scale constants are not callables and not listed).
CONVERTER_SIGNATURES = {
    "us": ("us", "us"),
    "ms": ("ms", "us"),
    "ns": ("ns", "us"),
    "seconds": ("s", "us"),
    "to_us": ("us", "us"),
    "to_ms": ("us", "ms"),
    "to_ns": ("us", "ns"),
    "to_seconds": ("us", "s"),
    "to_mj": ("uj", "mj"),
    "fps_from_ms": ("ms", None),
    # Dimension-changing identities: watts x us -> uJ, and G-per-second
    # rates -> per-us rates (whose argument carries no unit suffix).
    "uj_from_w_us": ("watts", "uj"),
    "per_us_rate": (None, None),
}

#: Module paths a converter call may be rooted at.
UNITS_MODULE_PATHS = ("units", "repro.sim.units", "sim.units")


def converter_signature(dotted):
    """``(argument_unit, return_unit)`` for a units-converter call path.

    Accepts ``units.to_ms`` / ``repro.sim.units.to_ms`` style dotted
    paths (via any import alias the resolver expanded) and the bare
    name when it was imported ``from repro.sim.units import to_ms``.
    Returns ``None`` for anything that is not a converter.
    """
    if dotted is None:
        return None
    head, _, leaf = dotted.rpartition(".")
    if leaf not in CONVERTER_SIGNATURES:
        return None
    if head == "" or head in UNITS_MODULE_PATHS:
        return CONVERTER_SIGNATURES[leaf]
    return None


#: Externally-declared call signatures the units pass enforces even
#: across module boundaries: callable leaf name -> tuple of
#: (position, parameter name, unit id) for each checked parameter.
#: These are API contracts stated in docstrings ("``delay``
#: microseconds"), so a unit-suffixed argument of a different unit is
#: a bug even though the parameter name carries no suffix.
DECLARED_SIGNATURES = {
    # Simulator.timeout(delay, ...) / Timeout(sim, delay, ...)
    "timeout": ((0, "delay", "us"),),
    # Simulator.schedule_callback(delay, callback, ...)
    "schedule_callback": ((0, "delay", "us"),),
    # repro.android.thread scheduling requests.
    "Sleep": ((0, "duration_us", "us"),),
    "Work": ((0, "ref_us", "us"),),
}


def declared_parameters(call_name):
    """Checked parameters for a declared-signature callable, or ``()``."""
    return DECLARED_SIGNATURES.get(call_name, ())


#: Power-of-1000 scale factors whose bare use in arithmetic is a
#: "magic conversion": the number 1000 converts between adjacent time
#: units (and uJ -> mJ) and should be spelled as a
#: :mod:`repro.sim.units` helper so the direction is readable.
MAGIC_SCALE_VALUES = (1000, 1000.0)


def is_magic_scale(value):
    """Whether a numeric literal is a bare power-of-1000 unit scale."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value in MAGIC_SCALE_VALUES
    )
