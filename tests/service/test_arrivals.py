"""Deterministic open-loop arrival processes."""

import pytest

from repro.apps.arrivals import (
    _STREAM,
    DiurnalArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.sim import RngStreams


def scalar_poisson_times(arrivals, duration_us):
    """Reference: the one-draw-per-gap loop the bulk draw replaced."""
    rng = RngStreams(arrivals.seed).stream(_STREAM)
    times = []
    now_us = 0.0
    while True:
        now_us += rng.exponential(arrivals.mean_gap_us)
        if now_us >= duration_us:
            return tuple(times)
        times.append(now_us)


def test_poisson_same_seed_replays_identically():
    a = PoissonArrivals(rate_rps=200.0, seed=7)
    b = PoissonArrivals(rate_rps=200.0, seed=7)
    assert a.times_us(duration_us=500_000) == b.times_us(
        duration_us=500_000
    )
    # The process is a pure function of (params, seed): asking again on
    # the same instance replays too — no hidden stream state.
    assert a.times_us(duration_us=250_000) == a.times_us(duration_us=250_000)


def test_poisson_seed_changes_timeline():
    a = PoissonArrivals(rate_rps=200.0, seed=0)
    b = PoissonArrivals(rate_rps=200.0, seed=1)
    assert a.times_us(duration_us=250_000) != b.times_us(duration_us=250_000)


def test_poisson_rate_matches_long_run_mean():
    times = PoissonArrivals(rate_rps=500.0, seed=3).times_us(
        duration_us=8_000_000
    )
    mean_gap_us = times[-1] / (len(times) - 1)
    assert mean_gap_us == pytest.approx(2000.0, rel=0.1)


@pytest.mark.parametrize("rate_rps", [3.0, 47.5, 200.0, 950.0, 4000.0])
def test_poisson_bulk_draw_matches_the_scalar_loop(rate_rps):
    # A window's first bulk draw holds one gap more than its expected
    # arrival count; a window with more arrivals than expected used it
    # up, drew again and carried the running sum over.
    carried = 0
    for seed in range(40):
        arrivals = PoissonArrivals(rate_rps=rate_rps, seed=seed)
        for duration_us in (2_000.0, 50_000.0, 333_333.3, 2_000_000.0):
            times = arrivals.times_us(duration_us=duration_us)
            assert times == scalar_poisson_times(
                arrivals, duration_us=duration_us
            )
            assert all(type(time) is float for time in times)
            if len(times) > duration_us / arrivals.mean_gap_us:
                carried += 1
    assert carried >= 20


def test_poisson_window_shorter_than_the_first_gap_is_empty():
    arrivals = PoissonArrivals(rate_rps=1.0, seed=0)
    first_gap_us = arrivals.times_us(duration_us=60_000_000)[0]
    assert arrivals.times_us(duration_us=first_gap_us) == ()
    assert arrivals.times_us(duration_us=first_gap_us / 2) == ()
    assert arrivals.times_us(duration_us=first_gap_us * 1.0001) == (
        first_gap_us,
    )


def test_diurnal_same_seed_replays_identically():
    a = DiurnalArrivals(rate_rps=300.0, amplitude=0.5, period_s=0.2, seed=9)
    b = DiurnalArrivals(rate_rps=300.0, amplitude=0.5, period_s=0.2, seed=9)
    assert a.times_us(duration_us=400_000) == b.times_us(
        duration_us=400_000
    )


def test_diurnal_peak_clusters_arrivals():
    arrivals = DiurnalArrivals(
        rate_rps=400.0, amplitude=0.9, period_s=1.0, seed=2
    )
    times = arrivals.times_us(duration_us=1_000_000)
    # rate_at peaks in the first half-period and troughs in the second.
    first_half = sum(1 for t in times if t < 500_000)
    second_half = len(times) - first_half
    assert first_half > 2 * second_half


@pytest.mark.parametrize("duration_us", [0.0, -1000.0])
def test_times_us_requires_a_positive_window(duration_us):
    with pytest.raises(ValueError, match="duration_us must be > 0"):
        PoissonArrivals(rate_rps=100.0, seed=0).times_us(duration_us)
    with pytest.raises(ValueError, match="duration_us must be > 0"):
        DiurnalArrivals(rate_rps=100.0, seed=0).times_us(duration_us)


def test_make_arrivals_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown arrival"):
        make_arrivals("bursty", 100.0, seed=0)


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        PoissonArrivals(rate_rps=0.0, seed=0)
    with pytest.raises(ValueError):
        DiurnalArrivals(rate_rps=100.0, amplitude=1.5, seed=0)
    with pytest.raises(ValueError):
        DiurnalArrivals(rate_rps=100.0, period_s=0.0, seed=0)
