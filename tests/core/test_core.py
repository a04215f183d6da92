"""AI-tax core tests: taxonomy, measurement, analysis, variability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CATEGORY_ALGORITHMS,
    PipelineRun,
    ProbeEffect,
    RunCollection,
    STAGE_CAPTURE,
    STAGE_INFERENCE,
    Taxonomy,
    VariabilityStats,
    breakdown,
    percentile,
    percentiles,
    render_table,
    stage_category,
)
from repro.core.report import render_breakdown
from repro.core.variability import histogram_of


def make_collection(name, totals, inference_fraction=0.5):
    collection = RunCollection(name=name)
    for total in totals:
        inference = total * inference_fraction
        rest = total - inference
        collection.add(
            PipelineRun(
                capture_us=rest * 0.5,
                pre_us=rest * 0.3,
                inference_us=inference,
                post_us=rest * 0.1,
                other_us=rest * 0.1,
            )
        )
    return collection


def test_taxonomy_categories_and_sources():
    assert stage_category(STAGE_CAPTURE) == CATEGORY_ALGORITHMS
    with pytest.raises(ValueError):
        stage_category(STAGE_INFERENCE)
    with pytest.raises(KeyError):
        stage_category("rendering")
    assert "multitenancy" in Taxonomy.sources("hardware")
    assert "drivers" in Taxonomy.sources("frameworks")
    with pytest.raises(KeyError):
        Taxonomy.sources("networks")
    assert "algorithms" in Taxonomy.describe()


def test_pipeline_run_totals_and_tax():
    run = PipelineRun(
        capture_us=10, pre_us=20, inference_us=50, post_us=15, other_us=5
    )
    assert run.total_us == 100
    assert run.tax_us == 50
    assert run.tax_fraction == 0.5


def test_collection_statistics():
    collection = make_collection("x", [10_000, 20_000, 30_000])
    assert collection.mean_us() == pytest.approx(20_000)
    totals = [run.total_us for run in collection]
    assert percentile(totals, 0.0) == 10_000
    assert percentile(totals, 1.0) == 30_000
    with pytest.raises(ValueError):
        percentile(totals, 1.5)
    assert len(collection.drop_warmup(1)) == 2


def test_breakdown_drops_warmup():
    collection = make_collection("warm", [100_000, 10_000, 10_000])
    result = breakdown(collection, drop_warmup=1)
    assert result.total_ms == pytest.approx(10.0)
    assert result.n == 2
    raw = breakdown(collection, drop_warmup=0)
    assert raw.total_ms > result.total_ms


def test_breakdown_rows_sum_to_one():
    collection = make_collection("rows", [10_000] * 4)
    result = breakdown(collection)
    fractions = [fraction for _stage, _ms, fraction in result.rows()]
    assert sum(fractions) == pytest.approx(1.0)
    assert result.capture_plus_pre_over_inference == pytest.approx(
        (result.capture_ms + result.pre_ms) / result.inference_ms
    )


def test_variability_stats():
    collection = make_collection("var", [10_000, 10_000, 10_000, 13_000, 9_000])
    stats = VariabilityStats.from_collection(collection, drop_warmup=0)
    assert stats.n == 5
    assert stats.median_ms == pytest.approx(10.0)
    assert stats.max_deviation_from_median == pytest.approx(0.3)
    assert stats.cv > 0
    assert stats.min_ms == 9.0 and stats.max_ms == 13.0


def test_variability_empty_raises():
    with pytest.raises(ValueError):
        VariabilityStats.from_collection(RunCollection("empty"), drop_warmup=0)


def test_histogram_bins_cover_all_runs():
    collection = make_collection("hist", list(range(10_000, 20_000, 1_000)))
    bins = histogram_of(collection, bins=5, drop_warmup=0)
    assert sum(count for _lo, _hi, count in bins) == 10
    assert bins[0][0] == pytest.approx(10.0)


def test_probe_effect_band():
    probe = ProbeEffect()
    assert probe.within_paper_band()
    assert probe.apply(100.0, accelerated=True) == pytest.approx(105.5)
    assert probe.apply(100.0, accelerated=False) == 100.0
    with pytest.raises(ValueError):
        ProbeEffect(accelerated_overhead=1.5)


def test_render_table_alignment():
    text = render_table(("a", "bb"), [(1.2345, "x"), (10.0, "yy")])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "1.23" in lines[2]
    assert lines[1].count("+") == 1


def test_render_breakdown_includes_tax():
    collection = make_collection("rb", [10_000] * 3)
    text = render_breakdown(breakdown(collection))
    assert "ai_tax" in text
    assert "inference" in text


@settings(max_examples=40, deadline=None)
@given(
    totals=st.lists(st.floats(1_000, 1_000_000), min_size=2, max_size=30),
    fraction=st.floats(0.05, 0.95),
)
def test_tax_fraction_bounds_property(totals, fraction):
    collection = make_collection("prop", totals, inference_fraction=fraction)
    result = breakdown(collection, drop_warmup=0)
    assert 0.0 <= result.tax_fraction <= 1.0
    assert result.tax_fraction == pytest.approx(1.0 - fraction, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(totals=st.lists(st.floats(1_000, 100_000), min_size=2, max_size=30))
def test_percentiles_ordered_property(totals):
    p10 = percentile(totals, 0.1)
    p50 = percentile(totals, 0.5)
    p90 = percentile(totals, 0.9)
    assert p10 <= p50 <= p90
    assert percentile(totals, 0.0) <= p10
    assert p90 <= percentile(totals, 1.0)


FRACTIONS = (0.0, 0.1, 0.5, 0.9, 0.99, 1.0)


@pytest.mark.parametrize("values", [[], [7.25]], ids=["empty", "one"])
def test_percentiles_match_percentile_on_tiny_lists(values):
    assert percentiles(values, FRACTIONS) == tuple(
        percentile(values, fraction) for fraction in FRACTIONS
    )


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=40
    ),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=5),
)
def test_percentiles_match_percentile_bit_for_bit(values, fractions):
    expected = tuple(percentile(values, fraction) for fraction in fractions)
    got = percentiles(values, fractions)
    # repr() tells -0.0 from 0.0, so this is equality bit for bit.
    assert [repr(value) for value in got] == [
        repr(value) for value in expected
    ]


def test_percentiles_check_every_fraction():
    with pytest.raises(ValueError, match="fraction must be in"):
        percentiles([1.0, 2.0], (0.5, 1.5))
