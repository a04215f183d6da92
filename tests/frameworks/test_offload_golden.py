"""Golden pin of the offload paths across commits.

None of the packaging golden's traced scenarios runs the GPU, so the
GPU delegate and NNAPI's GPU partitions had no trace-level pin. This
test runs four traced configurations that cross the offload stack:
TFLite's GPU delegate, an NNAPI plan with GPU partitions (at the
default preference and under ``low_power``), and SNPE on the DSP. Per
case it compares the sha256 of the Chrome trace export, a sha256 of the
run records, the final simulated time and a sha256 of
``soc.energy.by_label`` (Work labels reach nothing else) against
``goldens/offload_digests.json``.

Recapture deliberately with::

    PYTHONPATH=src:. python -c "import json; \\
        from tests.frameworks.test_offload_golden import regenerate; \\
        print(json.dumps(regenerate(), indent=2, sort_keys=True))"
"""

import hashlib
import json
import pathlib

import pytest

from repro.apps.harness import PipelineConfig, simulate_pipeline
from repro.observability import to_chrome_trace

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "offload_digests.json"

#: name -> traced PipelineConfig.
CASES = {
    "gpu_delegate": PipelineConfig(
        model_key="mobilenet_v1", dtype="fp32", context="cli",
        target="gpu", runs=3, trace=True,
    ),
    "nnapi_gpu": PipelineConfig(
        model_key="inception_v3", dtype="fp32", context="app",
        target="nnapi", runs=3, trace=True,
    ),
    "nnapi_gpu_low_power": PipelineConfig(
        model_key="inception_v3", dtype="fp32", context="app",
        target="nnapi", runs=3, trace=True, preference="low_power",
    ),
    "snpe_dsp": PipelineConfig(
        model_key="mobilenet_v1", dtype="int8", context="cli",
        target="snpe-dsp", runs=3, trace=True,
    ),
}


def _sha256(payload):
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def run_case(name):
    with simulate_pipeline(CASES[name]) as (records, packaging):
        kernel = packaging.kernel
        runs = [
            {
                "capture_us": run.capture_us,
                "pre_us": run.pre_us,
                "inference_us": run.inference_us,
                "post_us": run.post_us,
                "other_us": run.other_us,
                "meta": run.meta,
            }
            for run in records
        ]
        return {
            "chrome_sha256": _sha256(to_chrome_trace(kernel.sim.trace)),
            "records_sha256": _sha256({"name": records.name, "runs": runs}),
            "now": kernel.sim.now,
            "energy_by_label_sha256": _sha256(kernel.soc.energy.by_label),
        }


def regenerate():
    return {name: run_case(name) for name in CASES}


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_offload_run_matches_the_golden(name):
    assert run_case(name) == json.loads(GOLDEN.read_text())[name]
