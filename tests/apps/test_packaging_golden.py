"""Golden pin of traced packaging runs across commits.

The engine fingerprints hash cost tables and the scheduler golden runs
no app, so a change to the measured loop the three packagings share
could move every run the same way and still pass the comparison tests.
This test runs the seven ``repro trace`` scenarios, a benchmark-app
config and a camera-less MobileBERT app, each traced, and compares per
case the sha256 of the Chrome trace export, a sha256 of the run records
(collection name, every stage field and ``meta``) and the final
simulated time against ``goldens/packaging_digests.json``.

Recapture deliberately with::

    PYTHONPATH=src:. python -c "import json; \\
        from tests.apps.test_packaging_golden import regenerate; \\
        print(json.dumps(regenerate(), indent=2, sort_keys=True))"
"""

import hashlib
import json
import pathlib

import pytest

from repro.apps.harness import PipelineConfig, simulate_pipeline
from repro.observability import to_chrome_trace
from repro.observability.scenarios import SCENARIOS, scenario_config

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "packaging_digests.json"

#: name -> traced PipelineConfig.
CASES = {name: scenario_config(name) for name in SCENARIOS}
CASES["bench_app"] = PipelineConfig(
    model_key="mobilenet_v1", dtype="int8", context="bench_app",
    target="nnapi", runs=6, trace=True,
)
CASES["bert_app"] = PipelineConfig(
    model_key="mobile_bert", dtype="fp32", context="app", target="cpu",
    runs=3, trace=True,
)


def _sha256(payload):
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def run_case(name):
    with simulate_pipeline(CASES[name]) as (records, packaging):
        sim = packaging.kernel.sim
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
            "chrome_sha256": _sha256(to_chrome_trace(sim.trace)),
            "records_sha256": _sha256({"name": records.name, "runs": runs}),
            "now": sim.now,
        }


def regenerate():
    return {name: run_case(name) for name in CASES}


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_packaging_run_matches_the_golden(name):
    assert run_case(name) == json.loads(GOLDEN.read_text())[name]
