"""The checker registry: every static checker, defined once.

``python -m repro check``, the per-tool subcommands and their options,
pragma validation (:func:`repro.analysis.common.known_rule_ids`), rule
ownership in ``--list-pragmas``, and the registry invariants in
``tests/analysis/test_registry.py`` all read :data:`CHECKERS`, so a
checker exists exactly when it has an entry here.
"""

from dataclasses import dataclass

from repro.analysis import archcheck, lint, racecheck, semcheck


@dataclass(frozen=True)
class Option:
    """A per-tool option, passed to the checker's ``run`` by keyword."""

    flag: str
    keyword: str
    help: str


@dataclass(frozen=True)
class Listing:
    """An inventory a tool prints instead of running its rules."""

    flag: str
    help: str
    #: ``paths -> (records, errors)``.
    collect: object
    #: ``record -> str``: one line of the text report.
    render: object
    #: What the text footer counts, after the count.
    noun: str


@dataclass(frozen=True)
class Checker:
    """One static checker and everything the command line derives from it."""

    name: str
    #: Rule id -> :class:`~repro.analysis.common.RuleInfo`.
    rules: dict
    #: ``(paths, **options) -> (findings, errors)``.
    run: object
    #: What the clean-run summary line calls the checker.
    label: str
    #: One-line description for ``--help``.
    help: str
    options: tuple = ()
    listing: object = None


CHECKERS = (
    Checker(
        name="lint",
        rules=lint.RULES_BY_ID,
        run=lint.lint_paths,
        label="determinism lint",
        help="determinism lint over the source tree (docs/determinism.md)",
    ),
    Checker(
        name="semcheck",
        rules=semcheck.RULES_BY_ID,
        run=semcheck.semcheck_paths,
        label="semcheck",
        help="semantic checks: unit consistency and resource "
             "request/release protocol (docs/determinism.md)",
    ),
    Checker(
        name="archcheck",
        rules=archcheck.RULES_BY_ID,
        run=archcheck.archcheck_paths,
        label="archcheck",
        help="whole-program layering and cross-process safety "
             "analysis against .repro-arch.toml (docs/analysis.md)",
        options=(
            Option(
                "--contract",
                "contract_path",
                "archcheck layering contract (default: .repro-arch.toml "
                "in the working directory)",
            ),
        ),
    ),
    Checker(
        name="racecheck",
        rules=racecheck.RULES_BY_ID,
        run=racecheck.racecheck_paths,
        label="racecheck",
        help="yield-point atomicity and lockset analysis of the "
             "cooperative DES process bodies (docs/analysis.md)",
        listing=Listing(
            "--list-locks",
            "inventory every yield executed while a Resource grant is "
            "held instead of running rules",
            collect=racecheck.lock_inventory,
            render=racecheck.render_lock_record,
            noun="yield(s) while holding",
        ),
    ),
)

#: Checker name -> :class:`Checker`.
BY_NAME = {checker.name: checker for checker in CHECKERS}
