"""AI Tax in Mobile SoCs (ISPASS 2021) — reproduction library.

The public API re-exports the pieces a downstream user needs most: the
pipeline harness, the AI-tax analyses, the model zoo, and the experiment
registry. Subsystems (simulator, SoC, OS, frameworks, processing,
capture) are importable as subpackages; see the README architecture map.
"""

from repro.apps import PipelineConfig, run_pipeline
from repro.core import (
    PipelineRun,
    RunCollection,
    StageBreakdown,
    VariabilityStats,
    breakdown,
)
from repro.experiments import run_experiment
from repro.models import MODEL_CARDS, load_model, model_card
from repro.soc import SOC_SPECS, make_soc

__version__ = "1.0.0"

__all__ = [
    "PipelineConfig",
    "run_pipeline",
    "PipelineRun",
    "RunCollection",
    "StageBreakdown",
    "VariabilityStats",
    "breakdown",
    "run_experiment",
    "MODEL_CARDS",
    "load_model",
    "model_card",
    "SOC_SPECS",
    "make_soc",
    "__version__",
]
