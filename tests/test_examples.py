"""Smoke tests: every shipped example runs and prints its key output."""

import runpy
import sys

import pytest

EXAMPLES = "examples"


def run_example(monkeypatch, capsys, name, argv=()):
    monkeypatch.setattr(sys, "argv", [f"{EXAMPLES}/{name}.py", *argv])
    runpy.run_path(f"{EXAMPLES}/{name}.py", run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "quickstart")
    assert "AI tax" in out
    assert "data_capture" in out
    assert "capture+pre vs inference" in out


def test_classification_pipeline(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "classification_pipeline")
    assert "Top-5 predictions" in out
    assert "bitmap_convert" in out
    assert "Simulated cost" in out


def test_framework_shootout(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "framework_shootout")
    assert "REFERENCE-KERNEL FALLBACK" in out
    assert "snpe-dsp" in out
    assert "100% accelerated" in out


def test_multitenancy_study(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "multitenancy_study")
    assert "Fig. 9" in out
    assert "Fig. 10" in out


def test_question_answering(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "question_answering")
    assert "WordPiece tokens" in out
    assert "Best answer spans" in out
    assert "AI tax" in out


def test_dashcam_detection(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "dashcam_detection")
    assert "confirmed tracks" in out
    assert "AI tax" in out


@pytest.mark.slow
def test_paper_report(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "paper_report")
    assert "experiments regenerated" in out
    assert "[fig5]" in out
    assert "[takeaways]" in out


def test_profile_trace(monkeypatch, capsys, tmp_path):
    out = run_example(monkeypatch, capsys, "profile_trace", argv=[str(tmp_path)])
    assert "-- nnapi" in out
    assert "chrome://tracing" in out
    assert (tmp_path / "trace_cpu.json").exists()


def test_battery_life(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "battery_life")
    assert "battery hours" in out
    assert "hexagon [int8]" in out
    # The DSP placements must beat the fp32 CPU placement clearly.
    assert "motivation, in hours" in out
