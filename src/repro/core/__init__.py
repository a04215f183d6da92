"""AI-tax accounting: the paper's primary contribution.

"AI tax is the time a system spends on tasks that enable the execution
of a machine learning model; this is the combined latency of all
non-inference ML pipeline stages" (§IV). This package holds the Fig.-1
taxonomy, per-run stage measurements, breakdown analysis, run-to-run
variability statistics, and report rendering.
"""

from repro.core.analysis import StageBreakdown, breakdown
from repro.core.measurement import (
    PipelineRun,
    RunCollection,
    percentile,
    percentiles,
)
from repro.core.probe import ProbeEffect
from repro.core.report import render_table
from repro.core.result import ExperimentResult
from repro.core.taxonomy import (
    CATEGORY_ALGORITHMS,
    CATEGORY_FRAMEWORKS,
    CATEGORY_HARDWARE,
    STAGE_CAPTURE,
    STAGE_INFERENCE,
    STAGE_POST,
    STAGE_PRE,
    STAGES,
    TAX_STAGES,
    Taxonomy,
    stage_category,
)
from repro.core.variability import VariabilityStats

__all__ = [
    "ExperimentResult",
    "StageBreakdown",
    "breakdown",
    "PipelineRun",
    "RunCollection",
    "percentile",
    "percentiles",
    "ProbeEffect",
    "render_table",
    "CATEGORY_ALGORITHMS",
    "CATEGORY_FRAMEWORKS",
    "CATEGORY_HARDWARE",
    "STAGE_CAPTURE",
    "STAGE_INFERENCE",
    "STAGE_POST",
    "STAGE_PRE",
    "STAGES",
    "TAX_STAGES",
    "Taxonomy",
    "stage_category",
    "VariabilityStats",
]
