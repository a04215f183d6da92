"""A finished device frees itself by reference counting.

Every simulated device is built and torn down by one context manager,
``repro.apps.harness.rig``: when its block exits, also when the
simulation raises, the kernel closes its threads, the simulator drops
its queued events and its trace recorder's back-reference, and the SoC
its core back-references. Nothing is then left for the cyclic
collector, so its timing can move neither memory nor the call counts a
profiler sees. All runs here are unsanitized, as the benchmarks run
them: a sanitizer and its simulator refer to each other.
"""

import cProfile
import gc
import inspect
import types
from dataclasses import dataclass, replace

import pytest

from repro.apps import PipelineConfig, run_pipeline
from repro.experiments import REGISTRY, run_experiment
from repro.fleet import expand_population, paper_population
from repro.fleet.session import SessionSpec, simulate_session_payload
from repro.observability import record_trace
from repro.service import build_pool

BASE = SessionSpec(
    session_id=0, soc="sd845", model_key="mobilenet_v1", dtype="int8",
    context="app", target="nnapi", runs=2, seed=3, ambient_celsius=33.0,
    background=None,
)

SPECS = {
    "cli-cpu": replace(BASE, context="cli", target="cpu", dtype="fp32"),
    "bench_app-nnapi": replace(BASE, context="bench_app"),
    "app-nnapi": BASE,
    "app-cpu": replace(BASE, target="cpu"),
    "app-gpu": replace(BASE, target="gpu", dtype="fp32"),
    "app-hexagon": replace(BASE, target="hexagon"),
    "app-snpe-dsp": replace(BASE, target="snpe-dsp"),
    "background": replace(BASE, background=(2, "nnapi")),
    # Eight CPU jobs leave two threads runnable when the app finishes.
    "crowded-runqueue": replace(
        BASE, target="cpu", dtype="fp32", seed=0, background=(8, "cpu")
    ),
    # The vendor runtime does no fault recovery: the injected fault
    # kills the session, so it is torn down on the failure path.
    "chaos-killed": replace(
        BASE, context="cli", target="snpe-dsp", seed=1, fault_rate=0.5
    ),
}


def garbage_after(call):
    """What the cyclic collector finds right after ``call()``.

    The first call of a kind imports modules lazily, and an import can
    leave garbage of its own, so ``call`` runs once before the measured
    run.
    """
    call()
    while gc.collect():
        pass
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = call()
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    return found, result


@pytest.mark.parametrize("name", sorted(SPECS))
def test_finished_session_frees_itself(name, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    spec = SPECS[name]
    found, payload = garbage_after(
        lambda: simulate_session_payload(spec.to_dict())
    )
    assert ("error" in payload) == (name == "chaos-killed"), payload
    assert found == 0


def test_pool_calibration_frees_its_sessions(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    found, (profiles, failures) = garbage_after(
        lambda: build_pool(paper_population(), devices=2, seed=0)
    )
    assert len(profiles) == 2 and not failures
    assert found == 0


def test_run_pipeline_frees_its_rig(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    found, records = garbage_after(
        lambda: run_pipeline(PipelineConfig(runs=2))
    )
    assert len(records) == 2
    assert found == 0


#: The report's experiments that build their own rigs; takeaways builds
#: them through fig8.
RIG_EXPERIMENTS = (
    "ablation_coupling", "ablation_fastcv", "arvr_multimodel",
    "driver_versions", "energy", "fig6", "fig7", "fig8", "init_time",
    "mlperf_gap", "model_scaling", "pipelining", "preferences",
    "streaming", "takeaways", "thermal",
)


@pytest.mark.parametrize("name", RIG_EXPERIMENTS)
def test_experiment_frees_its_rigs(name, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    found, result = garbage_after(
        lambda: run_experiment(name, **REGISTRY[name].bench)
    )
    assert result.rows
    assert found == 0


def test_recorded_trace_frees_its_rig(monkeypatch):
    """The multitenant scenario is traced, and its background jobs are
    still running when the app finishes."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    def record():
        with record_trace("multitenant") as session:
            return len(session.sim.trace.spans)

    found, spans = garbage_after(record)
    assert spans
    assert found == 0


def _workload():
    for spec in expand_population(paper_population(), 6, seed=1):
        simulate_session_payload(spec.to_dict())
    build_pool(paper_population(), devices=2, seed=0)


#: Report experiments whose call counts move with the collector when a
#: rig is left to it: traced runs (fig6, fig7), camera apps (streaming),
#: FastRPC pre-processing (ablation_fastcv), pipelined stages
#: (pipelining) and model workers that never finish (arvr_multimodel).
REPORT_SUBSET = (
    "ablation_fastcv", "arvr_multimodel", "fig6", "fig7", "pipelining",
    "streaming",
)


def _report_subset():
    """The subset at ``repro report --fast`` settings."""
    for name in REPORT_SUBSET:
        parameters = inspect.signature(REGISTRY[name]).parameters
        run_experiment(name, **({"runs": 5} if "runs" in parameters else {}))


def _function_key(code):
    """A profiled function's key, one per code object.

    ``Profile.stats`` keys by ``(file, line, name)``, so every
    dataclass-generated ``__init__`` (compiled from ``<string>``) shares
    one key and only the last survives. A code object outlives the
    profiled runs, so its id tells the functions apart and stays the
    same from run to run; builtins are keyed by their name.
    """
    if isinstance(code, types.CodeType):
        return (code.co_filename, code.co_firstlineno, code.co_name, id(code))
    return code


def _call_counts(workload, threshold):
    """Per-function call counts of one profiled ``workload()``.

    ``threshold`` is the collector's first-generation threshold; 0
    switches automatic collection off while ``gc.isenabled()`` stays
    true, so the run loop pauses and resumes the collector as usual.
    Callbacks that other code hangs on the collector (hypothesis adds
    one) run once per collection, so they are set aside meanwhile.
    """
    saved = gc.get_threshold()
    callbacks = gc.callbacks[:]
    while gc.collect():
        pass
    gc.callbacks.clear()
    gc.set_threshold(threshold)
    profiler = cProfile.Profile()
    try:
        profiler.runcall(workload)
    finally:
        gc.set_threshold(*saved)
        gc.callbacks[:] = callbacks
    return {
        _function_key(entry.code): entry.callcount
        for entry in profiler.getstats()
    }


@dataclass
class _Three:
    three: int = 3


@dataclass
class _Five:
    five: int = 5


def test_call_counts_keep_each_generated_init_apart():
    """Both dataclasses' ``__init__`` come from ``<string>``; each keeps
    its own count."""

    def construct():
        for _ in range(3):
            _Three()
        for _ in range(5):
            _Five()

    counts = _call_counts(construct, 700)
    assert counts[_function_key(_Three.__init__.__code__)] == 3
    assert counts[_function_key(_Five.__init__.__code__)] == 5
    generated = sorted(
        count for key, count in counts.items()
        if isinstance(key, tuple) and key[0] == "<string>"
        and key[2] == "__init__"
    )
    assert generated == [3, 5]


def _assert_counts_do_not_depend_on_the_collector(workload):
    workload()  # fill the model-graph and cost-table caches first
    assert gc.isenabled()
    counts = {
        threshold: _call_counts(workload, threshold)
        for threshold in (1, 700, 0)
    }
    assert counts[1] == counts[700]
    assert counts[0] == counts[700]


def test_call_counts_do_not_depend_on_the_collector(monkeypatch):
    """When the collector runs decides nothing a profiler counts: a
    generator it closes would be charged to whatever frame it
    interrupted."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    _assert_counts_do_not_depend_on_the_collector(_workload)


def test_report_call_counts_do_not_depend_on_the_collector(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    _assert_counts_do_not_depend_on_the_collector(_report_subset)
