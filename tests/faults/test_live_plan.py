"""A live fault plan that never fires reproduces the fault-free run.

``fault_rate=0`` builds no plan at all, so comparing it with the
fault-free run says nothing. A plan that is live (truthy, so the
session gets an injector and every FastRPC call draws from it) but
never fires must leave the records and the final simulated time exactly
as they are without one: drawing decides a fault and nothing else.
"""

import pytest

from repro.apps import PipelineConfig
from repro.apps.harness import rig, simulate_pipeline
from repro.apps.packaging import AndroidApp
from repro.faults import FaultPlan, FaultSpec
from repro.faults.plan import FAULT_TIMEOUT

BASE = dict(model_key="mobilenet_v1", dtype="int8", context="app",
            runs=6, seed=3)

#: A spec pinned far past the last call of a six-run session.
NEVER = FaultPlan(specs=(FaultSpec(FAULT_TIMEOUT, at_call=10**9),))


def _rate_run(target, fault_rate):
    config = PipelineConfig(target=target, fault_rate=fault_rate, **BASE)
    with simulate_pipeline(config) as (records, packaging):
        return list(records), packaging.kernel.now, packaging.session


def _spec_run(target):
    """The packaging :func:`simulate_pipeline` builds, given ``NEVER``."""
    with rig(seed=BASE["seed"]) as (sim, _soc, kernel):
        app = AndroidApp(kernel, BASE["model_key"], dtype=BASE["dtype"],
                         target=target, faults=NEVER)
        records = app.execute(BASE["runs"], thread_name="app:mobilenet_v1")
        return list(records), sim.now, app.session


@pytest.mark.parametrize("target", ["nnapi", "snpe-dsp"])
@pytest.mark.parametrize("form", ["rate", "spec"])
def test_live_plan_that_never_fires_matches_the_fault_free_run(target, form):
    records, now, _session = _rate_run(target, 0.0)
    if form == "rate":
        live_records, live_now, session = _rate_run(target, 1e-18)
    else:
        live_records, live_now, session = _spec_run(target)
    injector = session.fault_injector
    assert injector is not None and injector.call_index > 0
    assert injector.total_injected == 0
    assert live_records == records
    assert live_now == now
