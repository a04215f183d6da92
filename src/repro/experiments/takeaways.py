"""The paper's takeaway boxes, each re-validated by measurement.

Section IV closes each subsection with a boxed takeaway. Each one is a
claim declared beside the experiment that measures it; this module runs
those experiments and renders the claims' rows — the headline summary
table in EXPERIMENTS.md.
"""

from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import CLAIM_HEADERS, Claim, evaluate
from repro.experiments.extensions import run_whatif
from repro.experiments.fig5 import run as run_fig5
from repro.experiments.fig8 import run as run_fig8
from repro.experiments.fig11 import run as run_fig11

#: (takeaway, claim id) in the order the paper boxes them.
TAKEAWAYS = (
    ("algorithms", "whatif.algorithm_share"),
    ("frameworks", "fig5.nnapi_over_cpu1"),
    ("hardware/cold start", "fig8.cold_share"),
    ("hardware/cold start", "fig8.amortized_share"),
    ("hardware/variability", "fig11.app_over_benchmark_cv"),
)

CLAIMS = (
    Claim("all_hold", "every box", "= yes",
          lambda result: all(result.column("holds")),
          "every boxed takeaway holds at the settings this table runs"),
)


@experiment("takeaways", claims=CLAIMS, bench={"runs": 8})
def run(runs=10, seed=0):
    """Re-validate every boxed takeaway; one row per claim."""
    results = (
        run_whatif(runs=runs, seed=seed),
        run_fig5(runs=runs, seed=seed),
        run_fig8(seed=seed, counts=(1, 50)),
        run_fig11(runs=max(runs * 6, 60), seed=seed),
    )
    claims = {
        row.id: row
        for result in results
        for row in evaluate(result.experiment_id, result)
    }
    rows = [
        (takeaway, claims[claim_id].statement, *claims[claim_id][:5])
        for takeaway, claim_id in TAKEAWAYS
    ]
    return ExperimentResult(
        experiment_id="takeaways",
        title="Paper takeaways, re-validated on the simulated substrate",
        headers=("takeaway", "paper claim", *CLAIM_HEADERS),
        rows=rows,
        notes=[
            "every row should read Y; a N means a calibration regression",
        ],
    )
