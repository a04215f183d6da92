"""CLI tests."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.experiments import REGISTRY, claims


def test_models_command(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "MobileNet 1.0 v1" in out
    assert "Mobile BERT" in out


def test_socs_command(capsys):
    assert main(["socs"]) == 0
    out = capsys.readouterr().out
    assert "Google Pixel 3" in out


def test_run_command(capsys):
    assert main([
        "run", "--model", "mobilenet_v1", "--dtype", "int8",
        "--context", "cli", "--target", "cpu", "--runs", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "ai_tax" in out
    assert "AI tax fraction" in out
    assert "median" in out


def test_experiment_command(capsys):
    assert main(["experiment", "fig5", "--runs", "4"]) == 0
    out = capsys.readouterr().out
    assert "[fig5]" in out
    assert "nnapi" in out


def test_experiment_rejects_unknown_id():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_run_rejects_bad_target():
    with pytest.raises(SystemExit):
        main(["run", "--target", "tpu"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_with_config_file(tmp_path, capsys):
    import json

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "model_key": "mobilenet_v1", "dtype": "int8", "context": "cli",
        "target": "cpu", "runs": 3,
    }))
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "ai_tax" in out


def test_config_dict_roundtrip():
    from repro.apps import PipelineConfig
    from repro.apps.harness import config_from_dict

    config = PipelineConfig(
        model_key="posenet", source_hw=(240, 320), background=(2, "cpu")
    )
    # JSON turns the tuple fields into lists; config_from_dict turns
    # them back, so a config file rebuilds the config it was written from.
    payload = json.loads(json.dumps(dataclasses.asdict(config)))
    assert payload["source_hw"] == [240, 320]
    assert config_from_dict(payload) == config


def test_config_unknown_key_rejected():
    import pytest as _pytest

    from repro.apps.harness import config_from_dict

    with _pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"model": "mobilenet_v1"})
    with _pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"extra": {}})


def test_fleet_command(tmp_path, capsys):
    cache_dir = str(tmp_path / "fleet-cache")
    argv = [
        "fleet", "--sessions", "8", "--workers", "2", "--seed", "0",
        "--runs", "3", "--cache-dir", cache_dir,
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "[fleet_percentiles]" in out
    assert "simulated: 8" in out
    # Warm cache: the second invocation simulates nothing.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "simulated: 0" in out
    assert "cache hits: 8" in out


def test_trace_command(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.json"
    argv = [
        "trace", "quickstart", "--out", str(out_path), "--runs", "3",
        "--top", "2",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "[pipeline]" in out
    assert "data_capture" in out
    assert f"wrote {out_path}" in out
    with open(out_path) as handle:
        payload = json.load(handle)
    tracks = {
        event["cat"]
        for event in payload["traceEvents"]
        if event["ph"] == "X"
    }
    assert {"fastrpc", "pipeline"} <= tracks


def test_trace_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "no-such-scenario"])


@pytest.fixture
def summary_results(monkeypatch, bench_result):
    """Serve ``summary``'s experiment runs from the session-wide results."""
    monkeypatch.setattr(
        claims, "run_experiment",
        lambda experiment_id, **_kwargs: bench_result(experiment_id),
    )


def test_summary_command(capsys, summary_results):
    assert main(["summary"]) == 0
    out = capsys.readouterr().out
    assert "fig5.nnapi_over_cpu1 " in out
    assert "~7x" in out
    assert "(4, 11)" in out
    assert "registered experiments" in out
    assert "claims holding:" in out
    assert "claims failing" not in out


def test_summary_exits_1_naming_a_failing_claim(
    capsys, monkeypatch, summary_results
):
    run = REGISTRY["fig5"]
    monkeypatch.setattr(run, "claims", tuple(
        dataclasses.replace(claim, band="< 1")
        if claim.id == "nnapi_over_cpu1" else claim
        for claim in run.claims
    ))
    assert main(["summary"]) == 1
    out = capsys.readouterr().out
    assert "claims failing:           fig5.nnapi_over_cpu1\n" in out


@pytest.mark.parametrize("gate, code", [
    ([], 0),
    (["--max-failure-rate", "0.0"], 1),
], ids=["ungated", "max-failure-rate-breached"])
def test_chaos_command(capsys, gate, code):
    assert main([
        "chaos", "--sessions", "6", "--runs", "2", "--seed", "5",
        "--fault-rate", "0.25", *gate,
    ]) == code
    out = capsys.readouterr().out
    assert "[chaos]" in out
    assert "fault rate" in out
    assert "failed sessions: 1" in out
    assert "died without recovery" in out
    assert ("exceeds --max-failure-rate" in out) == bool(code)


def test_serve_command_exports_identically(tmp_path, capsys):
    argv = [
        "serve", "--rate", "120", "--duration", "0.3", "--devices", "2",
        "--seed", "0",
    ]
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert main(argv + ["--export", str(path_a)]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "goodput" in out
    assert "slo misses:" in out
    assert main(argv + ["--export", str(path_b)]) == 0
    # Same config and seed: the canonical export is byte-identical.
    assert path_a.read_bytes() == path_b.read_bytes()


def test_serve_rejects_bad_policy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--policy", "tailshed"])


@pytest.fixture
def sanitize_default():
    """``--sanitize`` turns the sanitizer on process-wide; undo that."""
    from repro.sim import set_sanitize_default

    previous = set_sanitize_default(False)
    yield
    set_sanitize_default(previous)


def test_sanitize_command_replays_fig7_identically(capsys):
    assert main(["sanitize", "fig7"]) == 0
    assert "replay: IDENTICAL" in capsys.readouterr().out


def test_sanitize_command_json_payload(capsys):
    assert main(["sanitize", "fig7", "--format=json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["identical"] is True
    assert payload["digest_a"] == payload["digest_b"]
    assert payload["divergence"] is None


def test_sanitize_command_rejects_an_unknown_target(capsys):
    assert main(["sanitize", "no-such-target"]) == 2
    out = capsys.readouterr().out
    assert "unknown sanitize target 'no-such-target'" in out
    assert all(f"'{name}'" in out for name in ("fig7", "fleet", "serve"))


def test_trace_command_with_sanitizer_prints_its_audit(
        tmp_path, capsys, sanitize_default):
    assert main([
        "trace", "quickstart", "--runs", "2", "--sanitize",
        "--out", str(tmp_path / "trace.json"),
    ]) == 0
    out = capsys.readouterr().out
    assert "sanitizer: on" in out
    assert "hardware tracks conserve busy+idle" in out


def test_experiment_command_with_sanitizer(capsys, sanitize_default):
    assert main(["experiment", "fig7", "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer: on" in out
    assert "[fig7]" in out


@pytest.mark.parametrize("argv", [["models"], ["experiment", "fig7"]])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    """A reader that is gone before the first write (``| head`` that has
    already exited) ends the command quietly with status 1."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], stdout=write_end,
            stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
