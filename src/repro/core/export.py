"""Result export: experiment results to JSON.

``repro experiment <id> --json PATH`` writes an experiment's result for
downstream analysis (pandas, plotting); these helpers serialize it
without adding any dependency beyond the standard library.
"""

import json


def experiment_to_dict(result):
    """JSON-ready dict for an ExperimentResult."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "series": {
            key: list(value)
            for key, value in sorted(result.series.items())
        },
        "notes": list(result.notes),
    }


def experiment_to_json(result, path=None):
    """JSON text (or file) for an ExperimentResult."""
    text = json.dumps(experiment_to_dict(result), indent=2, default=str)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text
