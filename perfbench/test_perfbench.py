"""The benchmark's own tests. From the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import layers
import run
import workloads

ROOT = run.ROOT
PACKAGE_DIR = os.path.join(run.SRC, "repro")
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def printed_names(trace):
    """The metric names a run prints with ``--trace 0`` or ``1``."""
    if not trace:
        return set(run.END_TO_END_UNITS)
    return {
        f"{layer}.{metric}"
        for layer in layers.discover_layers(PACKAGE_DIR)
        for metric in run.LAYER_UNITS
    } | set(run.TRACE_UNITS)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_use_only_allowed_characters():
    for name in printed_names(0) | printed_names(1):
        assert METRIC_NAME.fullmatch(name), name


def test_benchmark_json_lists_every_printed_metric_with_its_unit():
    spec = benchmark_spec()
    assert [workload["name"] for workload in spec["workloads"]] == list(
        run.WORKLOADS
    )
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        listed = {metric["name"]: metric["unit"] for metric in spec[key]}
        printed = {name: run.unit_of(name) for name in printed_names(trace)}
        assert listed == printed, key


def test_every_end_to_end_metric_prints_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "3", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == run.END_TO_END_UNITS
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_one_repetition_of_each_workload_passes_the_output_check():
    assert workloads.check(run.GOLDEN) == {"ok": True, "mismatches": []}
    for workload in workloads.WORKLOADS.values():
        out = workloads.timed(workload(5))
        again = workloads.timed(workload(5))
        assert out["errors"] == [] and out["failed"] == 0
        assert out["attempted"] > 0 and len(out["steps"]) > 0
        assert out["digest"] == again["digest"]


def test_a_tampered_golden_digest_fails_the_check(tmp_path):
    with open(run.GOLDEN) as handle:
        golden = json.load(handle)
    golden["experiments"]["fig4"] = "0" * 64
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    env = dict(os.environ, PYTHONPATH=run.SRC)
    proc = subprocess.run(
        [sys.executable, run.WORKER, "check", "-", "0", str(tampered)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"ok": False, "mismatches": ["experiments.fig4"]}


def test_a_tampered_repetition_digest_fails_the_run():
    runner = run.Runner("serve", 0, deadline=0.0)
    runner.results = [
        {"digest": "a" * 64, "attempted": 1, "failed": 0},
        {"digest": "a" * 64, "attempted": 1, "failed": 0},
    ]
    runner.check_outputs()
    assert runner.errors == []
    runner.results[1]["digest"] = "b" * 64
    runner.check_outputs()
    assert len(runner.errors) == 1 and "disagree" in runner.errors[0]


def test_fold_puts_all_repro_time_in_named_layers():
    # A fresh process, as in a run: generators left by other tests would
    # be finalised inside the profiled fleet and charge their own layers.
    env = dict(os.environ, PYTHONPATH=run.SRC)
    proc = subprocess.run(
        [sys.executable, run.WORKER, "traced", "fleet", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["outside"] == []
    assert sorted(out["layers"]) == layers.discover_layers(PACKAGE_DIR)
    total = sum(layer["self_s"] for layer in out["layers"].values())
    assert total > 0
    assert out["layers"]["service"] == {"self_s": 0.0, "calls_in": 0}
    assert out["layers"]["sim"]["calls_in"] > 0


def test_outside_a_checkout_the_benchmark_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
