"""What-if analysis tests."""

import pytest

from repro.core.analysis import StageBreakdown
from repro.core.whatif import (
    accelerator_upgrade_ceiling,
    optimization_priorities,
    stage_speedup_impact,
)


def make_breakdown():
    return StageBreakdown(
        name="x", n=10, capture_ms=10.0, pre_ms=5.0, inference_ms=10.0,
        post_ms=1.0, other_ms=4.0,
    )  # total 30


def test_stage_speedup_impact_math():
    impact = stage_speedup_impact(make_breakdown(), "inference", factor=2.0)
    assert impact.stage_ms == 10.0
    assert impact.new_total_ms == pytest.approx(25.0)
    assert impact.end_to_end_speedup == pytest.approx(30.0 / 25.0)
    assert impact.stage_share == pytest.approx(1.0 / 3.0)


def test_infinite_factor_eliminates_stage():
    impact = stage_speedup_impact(
        make_breakdown(), "data_capture", factor=float("inf")
    )
    assert impact.new_total_ms == pytest.approx(20.0)


def test_validation():
    with pytest.raises(KeyError, match="unknown stage"):
        stage_speedup_impact(make_breakdown(), "rendering")
    with pytest.raises(ValueError):
        stage_speedup_impact(make_breakdown(), "inference", factor=0)


def test_priorities_ranked_by_payoff():
    impacts = optimization_priorities(make_breakdown(), factor=2.0)
    speedups = [impact.end_to_end_speedup for impact in impacts]
    assert speedups == sorted(speedups, reverse=True)
    # Capture and inference tie at 10 ms each; both outrank pre.
    top_stages = {impacts[0].stage, impacts[1].stage}
    assert top_stages == {"data_capture", "inference"}


def test_accelerator_ceiling_is_inverse_tax():
    b = make_breakdown()
    ceiling = accelerator_upgrade_ceiling(b)
    assert ceiling == pytest.approx(30.0 / 20.0)
    assert ceiling == pytest.approx(1.0 / b.tax_fraction)
