"""Backend pool: the device fleet seen from the service's side.

A service backend is one device from a
:class:`~repro.fleet.population.DevicePopulation`, reduced to the
profile the router and batcher need: how long one request takes, split
into the inference compute (which dynamic batching amortizes) and the
per-request AI tax (pre/post-processing and framework glue, which it
does not — the paper's central measurement, surfacing here as the term
that caps how much batching can buy).

Profiles are *calibrated by simulation*: :func:`build_pool` expands the
population deterministically and runs each device session through the
full per-device simulator (:func:`repro.fleet.session.simulate_session`
— FastRPC, NNAPI partitioning, DVFS, thermal, and injected faults all
included), then takes steady-state per-stage means. A session the
simulator kills (an un-recovered injected fault on a vendor runtime)
produces *no* backend: under chaos the pool itself shrinks, which is
exactly the goodput-collapse mechanism the chaos experiment measures.
"""

from dataclasses import dataclass

from repro.fleet import (
    STAGE_FIELDS,
    SessionSpec,
    simulate_session_payload,
)

#: Fraction of the single-request inference cost each *additional*
#: batched request adds (1.0 = no amortization; 0.0 = free riders).
DEFAULT_BATCH_MARGINAL = 0.35

#: Service-time scale of the degraded (shed-to) model variant.
DEFAULT_DEGRADED_SCALE = 0.4


@dataclass(frozen=True)
class BackendProfile:
    """One backend's calibrated service-time model.

    ``inference_us`` and ``tax_us`` are steady-state per-request means
    from the device simulation (``tax_us`` pools the pre/post/other
    stages; capture is excluded — service requests arrive with their
    payload). ``batch_marginal`` is the incremental inference cost
    fraction per extra batched item; ``degraded_scale`` scales both
    components for shed-to-degraded requests.

    An item is priced from two values per component: its plain cost
    (``inference_us``, ``tax_us``) and its degraded cost
    (``degraded_inference_us``, ``degraded_tax_us``), both fixed at
    construction. ``x * 1.0 == x``, so these price a plain item
    exactly as scaling it by 1.0 would.
    """

    backend_id: int
    name: str
    inference_us: float
    tax_us: float
    batch_marginal: float = DEFAULT_BATCH_MARGINAL
    degraded_scale: float = DEFAULT_DEGRADED_SCALE

    def __post_init__(self):
        if self.inference_us <= 0:
            raise ValueError(
                f"inference_us must be > 0, got {self.inference_us}"
            )
        if self.tax_us < 0:
            raise ValueError(f"tax_us must be >= 0, got {self.tax_us}")
        if not 0.0 <= self.batch_marginal <= 1.0:
            raise ValueError(
                f"batch_marginal must be in [0, 1], got "
                f"{self.batch_marginal}"
            )
        if not 0.0 < self.degraded_scale <= 1.0:
            raise ValueError(
                f"degraded_scale must be in (0, 1], got "
                f"{self.degraded_scale}"
            )
        # Derived, not fields: they stay out of __init__, eq and repr.
        object.__setattr__(
            self, "degraded_inference_us",
            self.inference_us * self.degraded_scale,
        )
        object.__setattr__(
            self, "degraded_tax_us", self.tax_us * self.degraded_scale
        )

    def batch_inference_us(self, degraded_flags):
        """Inference compute of one batch (µs).

        The first item pays its full cost; each further item pays only
        ``batch_marginal`` of its own single-request cost — weights
        load once, activations stream through together.
        """
        plain_us = self.inference_us
        degraded_us = self.degraded_inference_us
        total_us = 0.0
        for index, degraded in enumerate(degraded_flags):
            share = 1.0 if index == 0 else self.batch_marginal
            total_us += (degraded_us if degraded else plain_us) * share
        return total_us

    def batch_tax_us(self, degraded_flags):
        """Non-inference service work of one batch (µs); per item."""
        plain_us = self.tax_us
        degraded_us = self.degraded_tax_us
        return sum(
            degraded_us if degraded else plain_us
            for degraded in degraded_flags
        )

    def batch_service_us(self, degraded_flags):
        """End-to-end backend busy time for one batch (µs)."""
        return (
            self.batch_inference_us(degraded_flags)
            + self.batch_tax_us(degraded_flags)
        )

    def steady_rate_rps(self, batch_size):
        """Sustained request rate at saturation with full batches."""
        from repro.sim import units

        flags = (False,) * max(1, int(batch_size))
        return len(flags) / units.to_seconds(self.batch_service_us(flags))

    def to_dict(self):
        from repro.sim import units

        return {
            "backend_id": self.backend_id,
            "name": self.name,
            "inference_ms": units.to_ms(self.inference_us),
            "tax_ms": units.to_ms(self.tax_us),
            "batch_marginal": self.batch_marginal,
            "degraded_scale": self.degraded_scale,
        }


def profile_from_payload(backend_id, payload,
                         batch_marginal=DEFAULT_BATCH_MARGINAL,
                         degraded_scale=DEFAULT_DEGRADED_SCALE):
    """A :class:`BackendProfile` from a session-result payload.

    Steady-state runs only (the cold start is a session event, not a
    per-request cost); ``None`` when the payload is a failed session.
    """
    if payload.get("error") is not None or not payload.get("runs"):
        return None
    spec = SessionSpec.from_dict(payload["spec"])
    steady = payload["runs"][1:] or payload["runs"]
    count = len(steady)
    inference_us = sum(run["inference_us"] for run in steady) / count
    tax_us = sum(
        sum(run[stage] for stage in STAGE_FIELDS
            if stage not in ("inference_us", "capture_us"))
        for run in steady
    ) / count
    name = (
        f"{spec.soc}/{spec.model_key}-{spec.dtype}/{spec.target}"
        f"#{spec.session_id}"
    )
    return BackendProfile(
        backend_id=backend_id,
        name=name,
        inference_us=inference_us,
        tax_us=tax_us,
        batch_marginal=batch_marginal,
        degraded_scale=degraded_scale,
    )


def build_pool(population=None, devices=4, seed=0, runs=3, fault_rate=None,
               batch_marginal=DEFAULT_BATCH_MARGINAL,
               degraded_scale=DEFAULT_DEGRADED_SCALE):
    """Calibrate a backend pool from a device population.

    Returns ``(profiles, failures)``: the live pool (backend ids dense,
    in session order) and the structured errors of sessions whose
    simulation died — under injected faults the vendor-runtime slice
    does, shrinking the pool. Raises when *no* session survives, since
    a service with zero backends cannot run at all.
    """
    from repro.fleet import expand_population, paper_population

    if population is None:
        population = paper_population()
    if runs is not None:
        population = population.with_runs(runs)
    if fault_rate is not None:
        population = population.with_fault_rate(fault_rate)
    specs = expand_population(population, devices, seed=seed)
    profiles = []
    failures = []
    for spec in specs:
        payload = simulate_session_payload(spec.to_dict())
        profile = profile_from_payload(
            len(profiles), payload,
            batch_marginal=batch_marginal, degraded_scale=degraded_scale,
        )
        if profile is None:
            failures.append({
                "session_id": spec.session_id,
                "target": spec.target,
                "error": payload.get("error"),
            })
        else:
            profiles.append(profile)
    if not profiles:
        raise RuntimeError(
            f"no backend survived calibration: {len(failures)} of "
            f"{len(specs)} sessions failed"
        )
    return profiles, failures


def pool_capacity_rps(profiles, batch_size):
    """Aggregate saturation rate of a pool at a given batch size."""
    return sum(
        profile.steady_rate_rps(batch_size) for profile in profiles
    )
