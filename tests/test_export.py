"""Export tests: Chrome trace JSON and JSON results."""

import json

import pytest

from repro.core.export import experiment_to_dict, experiment_to_json
from repro.experiments.base import ExperimentResult
from repro.sim import Simulator
from repro.observability import to_chrome_trace, write_chrome_trace


def make_trace():
    sim = Simulator(trace=True)
    sim.trace.record("cpu0", "work", 0.0, 100.0, tid=7)
    sim.trace.record("cdsp", "infer", 50.0, 250.0)
    sim.trace.count("ctx_switch")
    sim.trace.mark("probe", detail="x")
    # Leave one span open: it must be skipped, not crash.
    sim.trace.begin("cpu1", "dangling")
    return sim.trace


def make_result():
    return ExperimentResult(
        experiment_id="figX",
        title="Demo",
        headers=("a", "b"),
        rows=[(1, 2.5), (3, 4.5)],
        series={"s": [1, 2, 3]},
        notes=["note"],
    )


def test_experiment_to_dict_and_json(tmp_path):
    payload = experiment_to_dict(make_result())
    assert payload["experiment_id"] == "figX"
    assert payload["rows"] == [[1, 2.5], [3, 4.5]]
    path = tmp_path / "result.json"
    text = experiment_to_json(make_result(), path=path)
    assert json.loads(path.read_text()) == json.loads(text)


def test_chrome_trace_structure():
    payload = to_chrome_trace(make_trace())
    events = payload["traceEvents"]
    kinds = {event["ph"] for event in events}
    assert {"M", "X", "C", "i"} <= kinds
    complete = [event for event in events if event["ph"] == "X"]
    assert len(complete) == 2  # dangling span skipped
    span = next(event for event in complete if event["cat"] == "cpu0")
    assert span["dur"] == pytest.approx(100.0)
    assert span["args"]["tid"] == 7
    # Thread-name metadata exists for every track with spans.
    names = {
        event["args"]["name"]
        for event in events
        if event["name"] == "thread_name"
    }
    assert {"cpu0", "cdsp", "cpu1"} <= names


def test_write_chrome_trace(tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(make_trace(), path)
    payload = json.loads(path.read_text())
    assert len(payload["traceEvents"]) == count
    assert payload["displayTimeUnit"] == "ms"


def test_chrome_trace_from_real_simulation(tmp_path):
    """End-to-end: profile a pipeline and export the trace."""
    from repro.apps import PipelineConfig
    from repro.apps.harness import simulate_pipeline

    config = PipelineConfig(
        model_key="mobilenet_v1", dtype="int8", context="cli",
        target="hexagon", runs=2, trace=True,
    )
    with simulate_pipeline(config) as (_records, packaging):
        payload = to_chrome_trace(packaging.kernel.trace)
    categories = {
        event.get("cat") for event in payload["traceEvents"]
    }
    assert "cdsp" in categories  # DSP inference visible in the trace


def test_experiment_dicts_of_same_seed_reruns_are_equal():
    """Same seed, same config: the exported dicts match exactly."""
    from repro.experiments import run_experiment

    first = experiment_to_dict(run_experiment("fig5", runs=4))
    second = experiment_to_dict(run_experiment("fig5", runs=4))
    assert first == second
