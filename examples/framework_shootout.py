#!/usr/bin/env python
"""Framework shootout: where should a model run?

For each quantized model that supports acceleration, compare the TFLite
Hexagon delegate, 4- and 1-thread CPU, NNAPI automatic assignment, and
vendor SNPE — and show NNAPI's partition plan, which explains *why*
some models degrade (paper §IV-B, Fig. 5).

Run:  python examples/framework_shootout.py
"""

from repro.apps import make_session
from repro.apps.harness import drive, rig
from repro.core.report import render_table
from repro.frameworks import NnapiSession, UnsupportedModelError
from repro.models import load_model, model_card

MODELS = ("mobilenet_v1", "efficientnet_lite0", "ssd_mobilenet_v2", "inception_v3")
TARGETS = ("hexagon", "cpu", "cpu1", "nnapi", "snpe-dsp")


def measure(model_key, target, invokes=6, seed=0):
    with rig(seed=seed, governor="performance") as (_sim, _soc, kernel):
        model = load_model(model_key, "int8")
        session = make_session(kernel, model, target=target)
        warm = drive(kernel, session, invokes, name="shootout")[1:]
    return sum(warm) / len(warm) / 1000.0, session


def main():
    rows = []
    plans = {}
    for model_key in MODELS:
        card = model_card(model_key)
        if not card.nnapi_int8 and not card.cpu_int8:
            continue
        row = [model_key]
        for target in TARGETS:
            try:
                mean_ms, session = measure(model_key, target)
            except UnsupportedModelError:
                row.append("n/a")
                continue
            row.append(mean_ms)
            if target == "nnapi":
                plans[model_key] = session
        rows.append(tuple(row))

    print(render_table(("Model (int8)",) + TARGETS, rows,
                       title="Warm inference latency (ms) per target"))
    print("\nNNAPI partition plans (why NNAPI wins or loses):")
    for model_key, session in plans.items():
        fraction = session.accelerated_fraction()
        fallback = " [REFERENCE-KERNEL FALLBACK]" if session.reference_fallback else ""
        print(f"  {model_key:<20s} {fraction:5.0%} accelerated{fallback}")
        plan = session.describe_plan()
        if len(plan) > 100:
            plan = plan[:97] + "..."
        print(f"    {plan}")


if __name__ == "__main__":
    main()
