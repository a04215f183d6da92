"""Physics relations of the CFS core loops under every CPU governor.

The scheduler property tests run under the performance governor with
DVFS off. These run CPU-only pipelines with the schedutil governor's
DVFS loops on, beside the fixed powersave and performance operating
points, and check what must hold whatever the scheduler does with the
frequency:

* every core is busy for between none and all of the elapsed time;
* CPU energy is at most every core's full busy power for the whole
  run, since a slice draws its core's busy power times the cube of an
  OPP fraction that is at most 1;
* a lower frequency never makes the mean iteration faster:
  powersave >= schedutil >= performance. The totals can tie to 1 ULP
  (a config the top OPP always serves), so ties are compared with
  ``rel_tol=1e-12``.
"""

import math
from dataclasses import replace

import pytest

from repro.apps import PipelineConfig
from repro.apps.harness import simulate_pipeline
from repro.soc.power import BIG_CORE_BUSY_W, LITTLE_CORE_BUSY_W

GOVERNORS = ("powersave", "schedutil", "performance")

#: CPU-only configs on both benchmark packagings, one and four threads.
CONFIGS = {
    f"{context}-{threads}t": PipelineConfig(
        model_key="mobilenet_v1", dtype="fp32", context=context,
        target="cpu", threads=threads, runs=3, seed=1,
    )
    for context in ("cli", "bench_app")
    for threads in (1, 4)
}


def run(config, governor):
    """Mean total, elapsed time, per-core busy times, CPU energy and
    the all-cores-busy energy bound of one simulated pipeline."""
    config = replace(config, governor=governor)
    with simulate_pipeline(config) as (records, packaging):
        sim, soc = packaging.kernel.sim, packaging.kernel.soc
        elapsed_us = sim.now
        big = {core.core_id for core in soc.big_cores}
        # sd845's two clusters: a big core's busy power at the top OPP
        # is BIG_CORE_BUSY_W, a little core's LITTLE_CORE_BUSY_W.
        bound_uj = sum(
            (BIG_CORE_BUSY_W if core.core_id in big else LITTLE_CORE_BUSY_W)
            * elapsed_us
            for core in soc.cores
        )
        return {
            "mean_us": records.mean_us(),
            "elapsed_us": elapsed_us,
            "busy_us": [core.busy_us for core in soc.cores],
            "cpu_uj": soc.energy.cpu_uj,
            "bound_uj": bound_uj,
        }


@pytest.fixture(scope="module")
def runs():
    return {
        (name, governor): run(config, governor)
        for name, config in CONFIGS.items()
        for governor in GOVERNORS
    }


def test_schedutil_actually_moves_the_frequency(runs):
    # Otherwise schedutil would only repeat one of the fixed governors.
    for name in CONFIGS:
        schedutil = runs[name, "schedutil"]["mean_us"]
        assert schedutil != runs[name, "powersave"]["mean_us"]


@pytest.mark.parametrize("governor", GOVERNORS)
def test_every_core_is_busy_within_the_elapsed_time(runs, governor):
    for name in CONFIGS:
        result = runs[name, governor]
        assert result["elapsed_us"] > 0
        assert any(busy > 0 for busy in result["busy_us"])
        for busy in result["busy_us"]:
            assert 0.0 <= busy <= result["elapsed_us"]


@pytest.mark.parametrize("governor", GOVERNORS)
def test_cpu_energy_is_bounded_by_full_busy_power(runs, governor):
    for name in CONFIGS:
        result = runs[name, governor]
        assert 0.0 < result["cpu_uj"] <= result["bound_uj"]


def test_slower_governors_never_make_an_iteration_faster(runs):
    def at_least(slower, faster):
        return slower >= faster or math.isclose(
            slower, faster, rel_tol=1e-12
        )

    for name in CONFIGS:
        powersave, schedutil, performance = (
            runs[name, governor]["mean_us"] for governor in GOVERNORS
        )
        assert at_least(powersave, schedutil), name
        assert at_least(schedutil, performance), name
