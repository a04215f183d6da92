"""An in-process fleet run never loads the process-pool machinery.

``concurrent.futures.process`` brings in ``multiprocessing`` (and with
it ``socket`` and ``subprocess``), and ``concurrent.futures`` itself
brings in ``logging``: milliseconds of import time and over a megabyte
of memory that a ``workers=1`` run has no use for. The supervisor
imports ``concurrent.futures`` only where it starts a pool.
"""

import json
import os
import pathlib
import subprocess
import sys

POOL_MODULES = (
    "concurrent.futures",
    "concurrent.futures.process",
    "logging",
    "multiprocessing",
)

PROBE = f"""
import json, sys
import repro.fleet
after_import = [name for name in {POOL_MODULES!r} if name in sys.modules]
result = repro.fleet.run_fleet(sessions=2, workers=1, seed=0, runs=2)
after_run = [name for name in {POOL_MODULES!r} if name in sys.modules]
print(json.dumps([after_import, after_run, len(result.results)]))
"""


def test_in_process_fleet_never_imports_the_pool():
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_run, sessions = json.loads(proc.stdout)
    assert sessions == 2
    assert after_import == []
    assert after_run == []
