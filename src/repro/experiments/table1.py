"""Table I: the benchmark list with processing tasks and support matrix."""

from repro.experiments.base import ExperimentResult, experiment
from repro.experiments.claims import Claim, cell
from repro.models import MODEL_CARDS, load_model

CLAIMS = (
    Claim("alexnet_nnapi_fp32", "N", "= no",
          cell("Model", "NNAPI-fp32", "AlexNet"),
          "AlexNet has no NNAPI path"),
    Claim("alexnet_cpu_fp32", "Y", "= yes",
          cell("Model", "CPU-fp32", "AlexNet"),
          "AlexNet runs on the CPU"),
)


@experiment("table1", claims=CLAIMS)
def run():
    """Regenerate Table I, extended with measured graph statistics."""
    headers = (
        "Task", "Model", "Resolution", "Pre-processing", "Post-processing",
        "NNAPI-fp32", "NNAPI-int8", "CPU-fp32", "CPU-int8",
        "MMACs", "MParams", "Ops",
    )
    rows = []
    for card in MODEL_CARDS.values():
        graph = load_model(card.key)
        rows.append(
            (
                card.task.replace("_", " ").title(),
                card.display_name,
                card.resolution,
                ", ".join(card.pre_tasks),
                ", ".join(card.post_tasks),
                card.nnapi_fp32,
                card.nnapi_int8,
                card.cpu_fp32,
                card.cpu_int8,
                graph.total_macs / 1e6,
                graph.total_params / 1e6,
                graph.op_count,
            )
        )
    return ExperimentResult(
        experiment_id="table1",
        title="Benchmarks: models, processing tasks, and support matrix",
        headers=headers,
        rows=rows,
        notes=[
            "dequantization post-processing applies to quantized models only",
            "MMACs/MParams/Ops are measured from the reproduction's graphs",
        ],
    )
