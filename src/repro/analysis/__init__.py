"""Correctness tooling: static checkers and the replay sanitizer.

Two layers guard the property every regenerated figure depends on —
that a seeded simulation replays bit-identically and computes the right
number:

- four AST checkers, listed once in :mod:`repro.analysis.registry` and
  run together by ``python -m repro check``:
  :mod:`repro.analysis.lint` (determinism hazards),
  :mod:`repro.analysis.semcheck` (unit consistency and the resource
  request/release protocol), :mod:`repro.analysis.archcheck` (layering
  and cross-process safety) and :mod:`repro.analysis.racecheck`
  (yield-point atomicity and locksets);
- :mod:`repro.analysis.sanitize` — the dual-run driver over the runtime
  sanitizer (:mod:`repro.sim.sanitizer`, ``REPRO_SANITIZE=1`` /
  ``--sanitize``): it replays a scenario twice and pinpoints the first
  divergent event.

``docs/analysis.md`` and ``docs/determinism.md`` catalogue the rules
and the suppression workflow.
"""
