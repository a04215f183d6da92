"""Export tests: Chrome trace JSON and CSV/JSON results."""

import csv
import io
import json

import pytest

from repro.core.export import (
    experiment_to_csv,
    experiment_to_dict,
    experiment_to_json,
    runs_to_csv,
    runs_to_rows,
)
from repro.core.measurement import PipelineRun, RunCollection
from repro.experiments.base import ExperimentResult
from repro.sim import Simulator
from repro.observability import to_chrome_trace, write_chrome_trace


def make_collection():
    collection = RunCollection(name="x")
    collection.add(PipelineRun(capture_us=1000, pre_us=500,
                               inference_us=2000, post_us=100, other_us=400))
    collection.add(PipelineRun(capture_us=1100, pre_us=450,
                               inference_us=2100, post_us=90, other_us=410))
    return collection


def make_trace():
    sim = Simulator(trace=True)
    sim.trace.record("cpu0", "work", 0.0, 100.0, tid=7)
    sim.trace.record("cdsp", "infer", 50.0, 250.0)
    sim.trace.count("ctx_switch")
    sim.trace.mark("probe", detail="x")
    # Leave one span open: it must be skipped, not crash.
    sim.trace.begin("cpu1", "dangling")
    return sim.trace


def test_runs_to_rows_units():
    rows = runs_to_rows(make_collection())
    assert rows[0]["total_ms"] == pytest.approx(4.0)
    assert rows[0]["tax_fraction"] == pytest.approx(0.5)
    assert rows[1]["index"] == 1


def test_runs_to_csv_roundtrip(tmp_path):
    path = tmp_path / "runs.csv"
    text = runs_to_csv(make_collection(), path=path)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 2
    assert float(parsed[0]["inference_ms"]) == pytest.approx(2.0)
    assert path.read_bytes().decode() == text


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


def test_experiment_to_csv():
    text = experiment_to_csv(make_result())
    lines = text.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,2.5"


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


def test_runs_csv_roundtrip_through_loader(tmp_path):
    from repro.core.export import runs_from_csv, runs_to_csv

    original = make_collection()
    path = tmp_path / "runs.csv"
    runs_to_csv(original, path=path)
    loaded = runs_from_csv(path, name="x")
    assert len(loaded) == len(original)
    assert loaded.mean_us() == pytest.approx(original.mean_us())
    # Also accepts raw CSV text.
    text_loaded = runs_from_csv(runs_to_csv(original))
    assert text_loaded.mean_us() == pytest.approx(original.mean_us())


def test_compare_experiments_flags_drift():
    from repro.core.export import compare_experiments, experiment_to_dict

    baseline = experiment_to_dict(make_result())
    current = experiment_to_dict(make_result())
    assert compare_experiments(baseline, current) == []
    current["rows"][0][1] = 99.0  # drift far beyond tolerance
    findings = compare_experiments(baseline, current)
    assert findings == [(1, "b", 2.5, 99.0)]


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("experiment_id", "figY", "^experiment mismatch: figX vs figY$"),
        ("headers", ["a", "c"], "^headers changed between baseline and current$"),
    ],
    ids=["experiment_id", "headers"],
)
def test_compare_experiments_validates_identity(key, value, message):
    from repro.core.export import compare_experiments, experiment_to_dict

    baseline = experiment_to_dict(make_result())
    other = experiment_to_dict(make_result())
    other[key] = value
    with pytest.raises(ValueError, match=message):
        compare_experiments(baseline, other)


def test_compare_experiments_real_runs_are_stable():
    """Same seed, same config: zero drift findings."""
    from repro.core.export import compare_experiments, experiment_to_dict
    from repro.experiments import run_experiment

    first = experiment_to_dict(run_experiment("fig5", runs=4))
    second = experiment_to_dict(run_experiment("fig5", runs=4))
    assert compare_experiments(first, second, rel_tolerance=0.001) == []
