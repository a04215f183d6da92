"""Determinism lint: AST rules for the hazards that break replay.

Every figure the reproduction regenerates rests on one property: a
seeded simulation replays bit-identically. The hazards that broke that
property in the past (``id(self)``-derived pids, the process-global
``SimThread._ids`` iterator) were each found *after* traces came out
different across reruns and fixed by hand. This linter turns the whole
hazard class into a blocking check instead of a code-review hope.

Rules (see :data:`RULES` and ``docs/determinism.md``)
-----------------------------------------------------

========================  =============================================
``wall-clock``            host clock reads outside allowlisted
                          calibration modules
``global-random``         the process-global ``random`` module, unseeded
                          ``random.Random()`` / ``numpy`` legacy global
                          generators
``id-as-key``             ``id(...)`` values flowing into keys, sort
                          orders, or trace fields
``module-counter``        ``itertools.count`` / class-level mutable
                          counters shared across simulations
``set-iteration``         iterating a set (hash order) without
                          ``sorted``
``unsorted-items``        ``dict.items()`` iteration in artifact-export
                          modules without ``sorted``
``bare-except``           handlers that swallow everything, including
                          injected faults
``unpaired-span``         a ``begin()`` span handle that is discarded
                          and therefore can never be ended
========================  =============================================

Suppression is explicit: a line pragma ``# repro: allow[rule-id]`` or
a file pragma ``# repro: allow-file[rule-id]``. Unknown rule ids in
either are hard errors so suppressions cannot rot.
"""

import ast
import re

from repro.analysis.common import (
    HOST_CLOCK_CALLS,
    AliasResolver,
    RuleInfo,
    assignment,
    check_module,
    check_paths,
    matches_any,
    set_iterations,
    unsorted_items_call,
)


RULES = (
    RuleInfo(
        "wall-clock",
        "wall-clock read in simulation code",
        "derive time from Simulator.now (simulated microseconds); host "
        "clocks differ run to run. Calibration harnesses belong in a "
        "module allowlisted in repro.analysis.lint.WALLCLOCK_ALLOW.",
    ),
    RuleInfo(
        "global-random",
        "process-global or unseeded random source",
        "draw from the simulation's named streams (repro.sim.rng."
        "RngStreams) or construct a generator from an explicit seed.",
    ),
    RuleInfo(
        "id-as-key",
        "id(...) used as an identity token",
        "CPython object addresses change across runs; allocate "
        "deterministic ids (Kernel.allocate_pid/allocate_tid, "
        "Simulator.next_id) or compare with `is`.",
    ),
    RuleInfo(
        "module-counter",
        "interpreter-global mutable counter",
        "itertools.count and class-level _ids survive across "
        "simulations in one process; allocate from the owning "
        "Simulator/Kernel (Simulator.next_id) instead.",
    ),
    RuleInfo(
        "set-iteration",
        "iteration over a set",
        "set order is hash-seed and address dependent; wrap the set in "
        "sorted(...) before iterating or feeding it to list()/tuple().",
    ),
    RuleInfo(
        "unsorted-items",
        "unsorted dict.items() in an artifact-export module",
        "wrap in sorted(...) (use key=... to preserve a deliberate "
        "display order) so exported artifacts and aggregate math do "
        "not depend on insertion order.",
    ),
    RuleInfo(
        "bare-except",
        "handler swallows every exception",
        "catch the specific exceptions you can recover from; a blanket "
        "handler hides injected faults and sanitizer violations.",
    ),
    RuleInfo(
        "unpaired-span",
        "begin() span handle discarded",
        "keep the handle and call end(span), or use the "
        "probes.probe(owner, track, label) context manager; a discarded "
        "handle leaves the span open forever.",
    ),
)

RULES_BY_ID = {rule.id: rule for rule in RULES}


#: fnmatch globs (matched against the resolved posix path) naming the
#: modules allowed to read host clocks: harnesses that measure the host
#: by design.
WALLCLOCK_ALLOW = (
    "*/processing/calibrate.py",
    # The fleet supervisor lives on the host side of the process
    # boundary: worker deadlines and crash backoff are wall-clock
    # because the simulated clock cannot observe a wedged worker.
    "*/fleet/supervisor.py",
)

#: Modules whose output reaches artifacts (traces, tables, JSON, fleet
#: aggregates); the ``unsorted-items`` rule fires only there.
EXPORT_MODULES = (
    "*/observability/*",
    "*/experiments/*",
    "*/core/export.py",
    "*/core/report.py",
    "*/fleet/aggregate.py",
)

#: numpy.random module-level functions backed by the legacy global state.
_NUMPY_LEGACY = frozenset(
    {
        "beta",
        "binomial",
        "choice",
        "exponential",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)

_COUNTER_NAME = re.compile(r"^_?(ids?|counters?|count|seq|sequence|next_\w+)$")


class _Analyzer(ast.NodeVisitor):
    """Single-pass rule engine over one module's AST."""

    def __init__(self, sink, resolved_path):
        self.sink = sink
        self._resolver = None
        self._parents = {}
        self._wallclock_allowed = matches_any(resolved_path, WALLCLOCK_ALLOW)
        self._is_export_module = matches_any(resolved_path, EXPORT_MODULES)

    # -- plumbing ------------------------------------------------------

    def run(self, tree):
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        self._resolver = AliasResolver(tree)
        self.visit(tree)

    def _dotted(self, node):
        """Resolve a call target to a dotted path through import aliases."""
        return self._resolver.dotted(node)

    def _flag(self, rule, node, message):
        self.sink.flag(rule, node, message)

    # -- call-shaped rules ---------------------------------------------

    def visit_Call(self, node):
        dotted = self._dotted(node.func) or ""
        self._check_wallclock(node, dotted)
        self._check_global_random(node, dotted)
        self._check_id(node, dotted)
        self._check_count(node, dotted)
        self._check_unsorted_items(node)
        self._check_set_materialized(node, dotted)
        self.generic_visit(node)

    def _check_wallclock(self, node, dotted):
        if dotted in HOST_CLOCK_CALLS and not self._wallclock_allowed:
            self._flag(
                "wall-clock",
                node,
                f"{dotted}() reads the host clock; simulation time must "
                "come from the engine",
            )

    def _check_global_random(self, node, dotted):
        if dotted.startswith("random."):
            if dotted == "random.Random":
                if not node.args and not node.keywords:
                    self._flag(
                        "global-random",
                        node,
                        "random.Random() without a seed draws from OS "
                        "entropy",
                    )
            elif dotted == "random.SystemRandom" or "." in dotted:
                self._flag(
                    "global-random",
                    node,
                    f"{dotted}() uses process-global random state",
                )
        elif dotted.startswith("numpy.random."):
            leaf = dotted.rsplit(".", 1)[1]
            if leaf in _NUMPY_LEGACY:
                self._flag(
                    "global-random",
                    node,
                    f"{dotted}() uses numpy's legacy global generator",
                )
            elif leaf in ("default_rng", "RandomState") and not node.args \
                    and not node.keywords:
                self._flag(
                    "global-random",
                    node,
                    f"{dotted}() without a seed draws from OS entropy",
                )

    def _check_id(self, node, dotted):
        if dotted == "id" and len(node.args) == 1:
            self._flag(
                "id-as-key",
                node,
                "id(...) is an interpreter address, different every run",
            )

    def _check_count(self, node, dotted):
        if dotted == "itertools.count":
            self._flag(
                "module-counter",
                node,
                "itertools.count() state is shared by every simulation "
                "in the process",
            )

    def _check_unsorted_items(self, node):
        if self._is_export_module and unsorted_items_call(node, self._parents):
            self._flag(
                "unsorted-items",
                node,
                ".items() order reaches an exported artifact without "
                "sorted(...)",
            )

    def _check_set_materialized(self, node, dotted):
        for iterated in set_iterations(node, self._parents, self._dotted):
            self._flag(
                "set-iteration",
                iterated,
                f"{dotted}() over a set materializes hash order",
            )

    # -- iteration rules -----------------------------------------------

    def _check_set_iteration(self, node):
        for iterated in set_iterations(node, self._parents, self._dotted):
            self._flag(
                "set-iteration",
                iterated,
                "iteration order over a set depends on hashes and "
                "addresses",
            )
        self.generic_visit(node)

    visit_For = _check_set_iteration
    visit_ListComp = _check_set_iteration
    visit_SetComp = _check_set_iteration
    visit_DictComp = _check_set_iteration
    visit_GeneratorExp = _check_set_iteration

    # -- statement rules -----------------------------------------------

    def visit_ExceptHandler(self, node):
        if node.type is None:
            self._flag(
                "bare-except",
                node,
                "bare except: swallows everything, including injected "
                "faults and sanitizer violations",
            )
        else:
            names = self._exception_names(node.type)
            reraises = any(
                isinstance(child, ast.Raise) for child in ast.walk(node)
            )
            swallows = all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in node.body
            )
            if "BaseException" in names and not reraises:
                self._flag(
                    "bare-except",
                    node,
                    "except BaseException without re-raise swallows "
                    "everything",
                )
            elif names and names <= {"Exception", "BaseException"} \
                    and swallows:
                self._flag(
                    "bare-except",
                    node,
                    "except Exception: pass silently drops failures",
                )
        self.generic_visit(node)

    @staticmethod
    def _exception_names(node):
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.Tuple):
            return {
                element.id
                for element in node.elts
                if isinstance(element, ast.Name)
            }
        return set()

    def visit_Expr(self, node):
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "begin"
        ):
            self._flag(
                "unpaired-span",
                node,
                "begin() result discarded; the span can never be "
                "end()ed",
            )
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        for stmt in node.body:
            parts = assignment(stmt)
            if parts is None:
                continue
            targets, value = parts
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if _COUNTER_NAME.match(target.id) and isinstance(
                    value, (ast.List, ast.Dict, ast.Set)
                ):
                    self._flag(
                        "module-counter",
                        stmt,
                        f"class-level mutable {target.id!r} is shared by "
                        "every instance in the process",
                    )
        self.generic_visit(node)


def lint_source(source, path, resolved_path=None):
    """Lint one module's source text.

    ``path`` is the display path attached to findings; ``resolved_path``
    (defaulting to ``path``) is what the module globs match against.
    Returns ``(findings, errors)``.
    """
    findings, errors, _ = check_module(
        source,
        path,
        RULES_BY_ID,
        lambda tree, sink: _Analyzer(sink, resolved_path or path).run(tree),
    )
    return findings, errors


def lint_paths(paths):
    """Lint every ``*.py`` file under ``paths``; returns (findings, errors)."""
    return check_paths(paths, lint_source)
