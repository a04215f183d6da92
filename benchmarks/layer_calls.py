"""Gate: per-layer call counts of the fleet and serve benchmarks.

Runs ``perfbench/run.py --workload <w> --seed 1 --seconds 1 --trace 1``
for the fleet and serve workloads and compares every
``<layer>.calls_in`` and ``sim.events`` with the committed golden,
``results/LAYER_CALLS_golden.json``. The counts are exact: every
simulated device is freed by reference counting when its
``harness.rig`` block exits, and every service window when
``Router.close()`` runs, so the cyclic collector's timing cannot move
them. A change that moves a count rewrites the golden in the same
commit and names the layer and the cause.

Call counts depend on the interpreter: Python 3.12 inlines
comprehensions (PEP 709), which removes their calls. The golden records
the CPython minor version and the numpy version it was captured on,
and a check on any other version fails without running.

report's counts do not depend on the collector either: under
cProfile, the whole report at ``report --fast`` settings makes
8,199,197 calls at collector thresholds 1, 700 and off, with every
function's count equal. It stays out for one reason, the fold:
``perfbench/layers.py`` charges each call a C function makes to the
layer that calls it most, so a change that only removes calls can flip
a builtin's owner and move other layers' report counts. report joins
once the fold is additive per call edge.

Usage, from the root of a checkout:

    python benchmarks/layer_calls.py --check   # exit 1 on any moved count
    python benchmarks/layer_calls.py --write   # rewrite the golden
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "benchmarks" / "results" / "LAYER_CALLS_golden.json"
WORKLOADS = ("fleet", "serve")
SEED = 1


def versions():
    import numpy

    return {
        "python": "{}.{}".format(*sys.version_info[:2]),
        "numpy": numpy.__version__,
    }


def counts(workload):
    """``<layer>.calls_in`` and ``sim.events`` of one traced run."""
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"layer_calls: the traced {workload} run failed")
    return {
        name: metric["value"]
        for name, metric in sorted(result["metrics"].items())
        if name.endswith(".calls_in") or name == "sim.events"
    }


def differences(golden, fresh):
    """One line per count that moved, appeared or disappeared."""
    lines = []
    for workload in WORKLOADS:
        was, now = golden.get(workload, {}), fresh[workload]
        for name in sorted(set(was) | set(now)):
            if was.get(name) != now.get(name):
                lines.append(
                    f"{workload} {name}: golden {was.get(name)}, "
                    f"now {now.get(name)}"
                )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare with the golden; exit 1 on a move")
    mode.add_argument("--write", action="store_true",
                      help="rewrite the golden from this interpreter")
    args = parser.parse_args(argv)

    here = versions()
    if args.check:
        golden = json.loads(GOLDEN.read_text())
        captured = {key: golden[key] for key in here}
        if captured != here:
            print(
                f"layer_calls: the golden was captured on Python "
                f"{captured['python']} with numpy {captured['numpy']}, "
                f"this is Python {here['python']} with numpy "
                f"{here['numpy']}; call counts differ across versions "
                "(PEP 709 inlines comprehensions in 3.12), so check on "
                "the golden's versions",
                file=sys.stderr,
            )
            return 2
    fresh = {workload: counts(workload) for workload in WORKLOADS}
    if args.write:
        GOLDEN.write_text(
            json.dumps({**here, "seed": SEED, **fresh}, indent=2) + "\n"
        )
        print(f"layer_calls: wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    moved = differences(golden, fresh)
    for line in moved:
        print(line)
    if moved:
        print(
            f"layer_calls: {len(moved)} count(s) moved; if the move is "
            "meant, rewrite the golden with --write and name the layer "
            "and the cause in CHANGES.md",
            file=sys.stderr,
        )
        return 1
    print(f"layer_calls: {', '.join(WORKLOADS)} match the golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())
