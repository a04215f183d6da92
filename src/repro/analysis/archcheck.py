"""Whole-program architecture check: layering and cross-process safety.

The per-file checkers (:mod:`repro.analysis.lint`,
:mod:`repro.analysis.semcheck`) see one module at a time; the hazards
that survive them are *relational*: a reverse import that quietly
couples the simulation substrate to the analysis layer, a closure
handed to a worker pool that cannot pickle, hash-ordered data that is
sorted nowhere on its way into a committed artifact. ``archcheck``
parses the whole tree at once, builds the module import graph plus
per-function call/dataflow summaries, and checks them against a
declarative contract (``.repro-arch.toml``).

Rule families (see :data:`RULES` and ``docs/analysis.md``)
----------------------------------------------------------

========================  =============================================
``layer-violation``       an import edge that points *up* the declared
                          layer order, or along an explicitly forbidden
                          edge
``deep-import``           a module outside a surface package importing
                          its internals instead of the package surface
                          or a sanctioned submodule
``worker-capture``        a lambda / nested closure handed to a process
                          pool or Supervisor, which cannot pickle (or
                          drags its enclosing scope across the fork)
``fork-unsafe-global``    module-level mutable state both mutated in
                          its module and reachable from a worker entry
                          point — each worker mutates its own copy and
                          the parent never sees it
``nondet-escape``         an artifact-producing module calling a
                          function elsewhere whose return value is
                          built by unsorted dict/set iteration
``sim-blocking-call``     real ``time.sleep``/clock/file/socket I/O
                          inside (or one call below) a DES process body
========================  =============================================

Same dialect as the other checkers: ``# repro: allow[rule-id]``
pragmas, an (empty, committed) baseline, ``--format=json``, exit codes
0/1/2.
"""

import ast
import pathlib
from dataclasses import dataclass, field

from repro.analysis.common import (
    HOST_CLOCK_CALLS,
    MUTATOR_METHODS,
    AliasResolver,
    Finding,
    LintError,
    RuleInfo,
    apply_pragmas,
    assignment,
    display_path,
    inside_sorted,
    matches_any,
    parse_pragmas,
    read_sources,
    unsorted_items_call,
)
from repro.analysis.common import render_findings as _render_findings
from repro.analysis.flow import own_nodes, scope_names


RULES = (
    RuleInfo(
        "layer-violation",
        "import edge points up the layer order (or along a banned edge)",
        "depend downward only: move the shared code below both layers "
        "(like repro.core.result) or invert the dependency; the layer "
        "order lives in .repro-arch.toml.",
    ),
    RuleInfo(
        "deep-import",
        "import of a surface package's internals from outside it",
        "import from the package surface (`from repro.fleet import "
        "run_fleet`) or a sanctioned submodule listed in "
        ".repro-arch.toml [surfaces].sanctioned.",
    ),
    RuleInfo(
        "worker-capture",
        "unpicklable callable handed to a worker pool",
        "submit a module-level function; lambdas and nested closures "
        "either fail to pickle or drag their enclosing scope across "
        "the process boundary.",
    ),
    RuleInfo(
        "fork-unsafe-global",
        "mutable module global reachable from a worker entry point",
        "each worker process mutates its own copy and the parent never "
        "observes it; thread the state through the payload dict or "
        "return it from the entry point.",
    ),
    RuleInfo(
        "nondet-escape",
        "dict/set-iteration order escapes into an artifact",
        "the callee builds its return value by unsorted dict/set "
        "iteration and this caller exports it; sort inside the callee "
        "so every consumer is safe.",
    ),
    RuleInfo(
        "sim-blocking-call",
        "real clock/file/socket I/O reachable from a DES process body",
        "simulated time must come from the engine and I/O from "
        "injected costs; hoist the real I/O out of the process (export "
        "after the run) or inject it (self._sleep-style hooks).",
    ),
)

RULES_BY_ID = {rule.id: rule for rule in RULES}

#: Default contract filename, looked up in the working directory.
CONTRACT_NAME = ".repro-arch.toml"

#: Call targets that block on the host: real sleeps and clocks, file
#: opens, sockets. Resolved through import aliases like lint's sets.
_BLOCKING_CALLS = HOST_CLOCK_CALLS | {
    "time.sleep",
    "open",
    "io.open",
    "socket.socket",
    "socket.create_connection",
}

#: Nodes whose bodies are separate scopes for a function summary.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

#: Constructors whose result is a mutable container.
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
     "deque"}
)

#: Import roots the per-function alias resolver always tracks; the
#: roots of the program's own packages are added per run.
_TRACKED_ROOTS = ("time", "socket", "io", "functools", "concurrent")


# ---------------------------------------------------------------------
# Contract
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ArchContract:
    """The declarative architecture: layers, surfaces, worker entries."""

    #: Layer names, bottom -> top.
    order: tuple = ()
    #: layer name -> module dotted-prefix tuple.
    layer_modules: dict = field(default_factory=dict)
    #: (from_layer, to_layer) edges banned beyond the order.
    forbidden: tuple = ()
    #: Packages whose internals are private outside the package.
    surface_packages: tuple = ()
    #: Submodules of surface packages that are sanctioned surfaces.
    sanctioned: tuple = ()
    #: Dotted function names handed to worker processes.
    worker_entrypoints: tuple = ()
    #: fnmatch globs (resolved paths) of artifact-producing modules.
    artifact_modules: tuple = ()
    #: Layers whose generators are presumed DES process bodies.
    process_layers: tuple = ()
    #: fnmatch globs of modules allowed to block regardless.
    blocking_allow: tuple = ()

    def validate(self, source_path):
        """Contract-internal consistency; returns a LintError list."""
        errors = []
        known = set(self.order)
        for layer in self.layer_modules:
            if layer not in known:
                errors.append(LintError(
                    source_path, 0,
                    f"[layers.modules] names undeclared layer {layer!r} "
                    f"(order: {', '.join(self.order)})",
                ))
        for edge in self.forbidden:
            bad = [layer for layer in edge if layer not in known]
            if len(edge) != 2 or bad:
                errors.append(LintError(
                    source_path, 0,
                    f"[layers.forbidden] edge {list(edge)!r} must be a "
                    "[from, to] pair of declared layers",
                ))
        for layer in self.process_layers:
            if layer not in known:
                errors.append(LintError(
                    source_path, 0,
                    f"[blocking].process_layers names undeclared layer "
                    f"{layer!r}",
                ))
        return errors

    def layer_of(self, module):
        """Layer name for a dotted module, by longest prefix match."""
        best = None
        best_len = -1
        for layer, prefixes in self.layer_modules.items():
            for prefix in prefixes:
                if module == prefix or module.startswith(prefix + "."):
                    if len(prefix) > best_len:
                        best, best_len = layer, len(prefix)
        return best

    def layer_index(self, layer):
        return self.order.index(layer)

    def surface_package_of(self, module):
        """The surface package ``module`` belongs to, if any (longest)."""
        best = None
        for package in self.surface_packages:
            if module == package or module.startswith(package + "."):
                if best is None or len(package) > len(best):
                    best = package
        return best

    def is_sanctioned(self, module):
        return any(
            module == entry or module.startswith(entry + ".")
            for entry in self.sanctioned
        )


def _parse_toml(text, path):
    """Parse the contract TOML.

    Uses :mod:`tomllib` where available (3.11+); otherwise a fallback
    parser for the subset the contract uses — ``[dotted.tables]``,
    string values, and (nested, multiline) string arrays, whose syntax
    is identical to Python literals.
    """
    try:
        import tomllib
    except ImportError:
        tomllib = None
    if tomllib is not None:
        return tomllib.loads(text)
    return _parse_toml_subset(text, path)


def _parse_toml_subset(text, path):
    data = {}
    table = data
    pending_key = None
    pending_value = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if pending_key is None and (not line or line.startswith("#")):
            continue
        if pending_key is None and line.startswith("["):
            if not line.endswith("]"):
                raise ValueError(f"{path}:{lineno}: malformed table header")
            table = data
            for part in line[1:-1].split("."):
                table = table.setdefault(part.strip(), {})
            continue
        if pending_key is None:
            key, _, value = line.partition("=")
            if not _:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            pending_key, pending_value = key.strip(), [value.strip()]
        else:
            pending_value.append(line)
        joined = " ".join(pending_value)
        if joined.count("[") > joined.count("]"):
            continue  # multiline array still open
        # Comments may trail a closed value; strings in the contract
        # never contain '#', so a plain split is enough here.
        joined = joined.split("#")[0].strip()
        try:
            table[pending_key] = ast.literal_eval(joined)
        except (ValueError, SyntaxError) as exc:
            raise ValueError(
                f"{path}: bad value for {pending_key!r}: {exc}"
            ) from exc
        pending_key, pending_value = None, []
    if pending_key is not None:
        raise ValueError(f"{path}: unterminated array for {pending_key!r}")
    return data


def load_contract(path=None):
    """Load the contract; returns ``(ArchContract | None, errors)``.

    With no explicit ``path``, looks for :data:`CONTRACT_NAME` in the
    working directory; a missing default is an error — archcheck
    without a contract checks nothing and must not report "clean".
    """
    contract_path = pathlib.Path(path or CONTRACT_NAME)
    display = str(contract_path)
    try:
        text = contract_path.read_text()
    except OSError as exc:
        return None, [LintError(display, 0, f"unreadable contract: {exc}")]
    try:
        data = _parse_toml(text, display)
    except ValueError as exc:
        return None, [LintError(display, 0, f"malformed contract: {exc}")]
    layers = data.get("layers", {})
    surfaces = data.get("surfaces", {})
    blocking = data.get("blocking", {})
    contract = ArchContract(
        order=tuple(layers.get("order", ())),
        layer_modules={
            layer: tuple(prefixes)
            for layer, prefixes in layers.get("modules", {}).items()
        },
        forbidden=tuple(
            tuple(edge) for edge in layers.get("forbidden", {}).get(
                "edges", ()
            )
        ),
        surface_packages=tuple(surfaces.get("packages", ())),
        sanctioned=tuple(surfaces.get("sanctioned", ())),
        worker_entrypoints=tuple(
            data.get("workers", {}).get("entrypoints", ())
        ),
        artifact_modules=tuple(data.get("artifacts", {}).get("modules", ())),
        process_layers=tuple(blocking.get("process_layers", ())),
        blocking_allow=tuple(blocking.get("allow", ())),
    )
    errors = contract.validate(display)
    if errors:
        return None, errors
    return contract, []


# ---------------------------------------------------------------------
# Program model
# ---------------------------------------------------------------------


@dataclass
class FunctionSummary:
    """What one function does, as far as the rules care."""

    qualname: str
    module: str
    name: str
    lineno: int
    is_generator: bool = False
    #: Resolved call targets in the body: (dotted, lineno, col).
    calls: list = field(default_factory=list)
    #: Blocking calls in the body: (dotted, lineno, col).
    blocking: list = field(default_factory=list)
    #: Return value shaped by unsorted dict/set iteration.
    order_dependent: bool = False
    #: Module-global names the body reads (locals excluded).
    global_reads: set = field(default_factory=set)
    #: name -> lineno of the first read, for finding locations.
    global_read_lines: dict = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module of the program under analysis."""

    name: str
    display: str
    resolved: str
    tree: object
    source: str
    #: Import edges: (target_module, lineno, col).
    imports: list = field(default_factory=list)
    #: qualname -> FunctionSummary (methods use Class.method).
    functions: dict = field(default_factory=dict)
    #: Mutable module-level containers that are also mutated:
    #: name -> definition lineno.
    fork_hazard_globals: dict = field(default_factory=dict)
    #: worker-capture findings collected during the module walk.
    capture_findings: list = field(default_factory=list)


def _module_name(file_path):
    """Dotted module name from the package layout on disk."""
    file_path = pathlib.Path(file_path)
    parts = [] if file_path.stem == "__init__" else [file_path.stem]
    parent = file_path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        parts = [file_path.parent.name]
    return ".".join(reversed(parts))


def _scope_nodes(node):
    """Walk a function body without descending into nested scopes."""
    return own_nodes(ast.iter_child_nodes(node), scopes=_SCOPES)


def _import_edges(tree, module, all_modules):
    """Import edges of one module, submodule imports resolved.

    ``from repro import viz`` really depends on ``repro.viz`` when that
    is a module of the program; recording the submodule (rather than
    the stated package) is what lets the layer rules see the true edge.
    """
    edges = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append((alias.name, node.lineno, node.col_offset))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.split(".")
                parts = parts[: len(parts) - node.level]
                base = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                target = f"{base}.{alias.name}"
                if target not in all_modules:
                    target = base
                edges.append((target, node.lineno, node.col_offset))
    return edges


class _ModuleAnalyzer(ast.NodeVisitor):
    """Single pass over one module: summaries, globals, pool submits."""

    def __init__(self, info, module_functions, program_roots=()):
        self.info = info
        self._module_functions = module_functions
        self._resolver = AliasResolver(
            info.tree, _TRACKED_ROOTS + tuple(program_roots)
        )
        #: Stack of (FunctionSummary | None, local-callable-names set).
        self._scopes = []
        self._class_stack = []

    # -- resolution ----------------------------------------------------

    def _dotted(self, node):
        dotted = self._resolver.dotted(node)
        if dotted is None:
            return None
        if "." not in dotted and dotted in self._module_functions:
            return f"{self.info.name}.{dotted}"
        return dotted

    # -- scope plumbing ------------------------------------------------

    def visit_ClassDef(self, node):
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node):
        if self._scopes:
            # A nested def: its name is a closure in the parent scope.
            self._scopes[-1][1].add(node.name)
        qual_parts = self._class_stack + [node.name]
        summary = FunctionSummary(
            qualname=f"{self.info.name}.{'.'.join(qual_parts)}",
            module=self.info.name,
            name=node.name,
            lineno=node.lineno,
        )
        self._summarize(node, summary)
        # Module-level functions are call-resolvable; methods and nested
        # defs are kept too (their own bodies are still checked).
        self.info.functions.setdefault(summary.qualname, summary)
        self._scopes.append((summary, set()))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _summarize(self, node, summary):
        locals_, _declared = scope_names(node, _scope_nodes(node))
        has_value_return = False
        for child in _scope_nodes(node):
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                summary.is_generator = True
            elif isinstance(child, ast.Return) and child.value is not None:
                has_value_return = True
            elif isinstance(child, ast.Call):
                dotted = self._dotted(child.func)
                if dotted is not None:
                    where = (dotted, child.lineno, child.col_offset)
                    summary.calls.append(where)
                    if dotted in _BLOCKING_CALLS:
                        summary.blocking.append(where)
            elif (
                isinstance(child, ast.Name)
                and isinstance(child.ctx, ast.Load)
                and child.id not in locals_
            ):
                summary.global_reads.add(child.id)
                summary.global_read_lines.setdefault(child.id, child.lineno)
        summary.order_dependent = has_value_return and self._order_dependent(
            node
        )

    def _order_dependent(self, node):
        parents = {}
        for parent in _scope_nodes(node):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent

        for child in _scope_nodes(node):
            if unsorted_items_call(child, parents):
                return True
            if isinstance(child, (ast.For, ast.comprehension)):
                iterated = child.iter
                if isinstance(iterated, (ast.Set, ast.SetComp)) or (
                    isinstance(iterated, ast.Call)
                    and isinstance(iterated.func, ast.Name)
                    and iterated.func.id == "set"
                    and not inside_sorted(iterated, parents)
                ):
                    return True
        return False

    # -- worker-capture ------------------------------------------------

    def visit_Call(self, node):
        callable_arg = None
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("submit", "map")
            and self._looks_like_pool(node.func.value)
            and node.args
        ):
            callable_arg = node.args[0]
        else:
            dotted = self._dotted(node.func) or ""
            if dotted.rsplit(".", 1)[-1] == "Supervisor":
                for keyword in node.keywords:
                    if keyword.arg == "task":
                        callable_arg = keyword.value
        if callable_arg is not None:
            self._check_capture(node, callable_arg)
        self.generic_visit(node)

    def _looks_like_pool(self, receiver):
        dotted = (self._resolver.dotted(receiver) or "").lower()
        return "pool" in dotted or "executor" in dotted

    def _check_capture(self, node, callable_arg):
        while (
            isinstance(callable_arg, ast.Call)
            and (self._dotted(callable_arg.func) or "").endswith("partial")
            and callable_arg.args
        ):
            callable_arg = callable_arg.args[0]
        if isinstance(callable_arg, ast.Lambda):
            self.info.capture_findings.append(Finding(
                "worker-capture", self.info.display,
                callable_arg.lineno, callable_arg.col_offset,
                "lambda submitted to a worker pool cannot pickle",
            ))
        elif isinstance(callable_arg, ast.Name):
            for _, local_callables in self._scopes:
                if callable_arg.id in local_callables:
                    self.info.capture_findings.append(Finding(
                        "worker-capture", self.info.display,
                        callable_arg.lineno, callable_arg.col_offset,
                        f"nested function {callable_arg.id!r} submitted "
                        "to a worker pool captures its enclosing scope",
                    ))
                    break

    def visit_Assign(self, node):
        if self._scopes and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._scopes[-1][1].add(target.id)
        self.generic_visit(node)


def _collect_fork_hazards(info):
    """Module-level mutable containers that something also mutates."""
    candidates = {}
    for node in info.tree.body:
        parts = assignment(node)
        if parts is None:
            continue
        targets, value = parts
        mutable = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_FACTORIES
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                candidates[target.id] = node.lineno

    if not candidates:
        return {}
    mutated = set()
    for node in ast.walk(info.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
            and isinstance(node.func.value, ast.Name)
        ):
            mutated.add(node.func.value.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [getattr(node, "target", None)] if not isinstance(
                    node, ast.Delete
                )
                else node.targets
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    mutated.add(target.value.id)
        elif isinstance(node, ast.Global):
            mutated.update(node.names)
    return {
        name: lineno
        for name, lineno in candidates.items()
        if name in mutated
    }


def build_program(paths):
    """Parse every module under ``paths`` into a program model.

    Returns ``(modules, errors)`` where ``modules`` maps dotted names
    to :class:`ModuleInfo`.
    """
    errors = []
    modules = {}
    for file_path, source in read_sources(paths, errors):
        display = display_path(file_path)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            errors.append(
                LintError(display, exc.lineno or 0,
                          f"syntax error: {exc.msg}")
            )
            continue
        name = _module_name(file_path)
        modules[name] = ModuleInfo(
            name=name,
            display=display,
            resolved=file_path.resolve().as_posix(),
            tree=tree,
            source=source,
        )

    all_names = set(modules)
    program_roots = sorted({name.split(".")[0] for name in modules})
    for info in modules.values():
        info.imports = _import_edges(info.tree, info.name, all_names)
        module_functions = {
            node.name
            for node in info.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        _ModuleAnalyzer(info, module_functions, program_roots).visit(info.tree)
        info.fork_hazard_globals = _collect_fork_hazards(info)
    return modules, errors


# ---------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------


def _function_index(modules):
    """qualname -> (FunctionSummary, ModuleInfo) over the program."""
    index = {}
    for info in modules.values():
        for qualname, summary in info.functions.items():
            index[qualname] = (summary, info)
    return index


def _check_layers(modules, contract):
    findings = []
    for info in modules.values():
        importer_layer = contract.layer_of(info.name)
        importer_package = contract.surface_package_of(info.name)
        for target, lineno, col in info.imports:
            target_layer = contract.layer_of(target)
            if importer_layer is not None and target_layer is not None:
                up = contract.layer_index(target_layer) > (
                    contract.layer_index(importer_layer)
                )
                banned = (importer_layer, target_layer) in contract.forbidden
                if up or banned:
                    why = (
                        "explicitly forbidden edge" if banned and not up
                        else "imports up the layer order"
                    )
                    findings.append(Finding(
                        "layer-violation", info.display, lineno, col,
                        f"{info.name} (layer {importer_layer!r}) imports "
                        f"{target} (layer {target_layer!r}): {why}",
                    ))
                    continue
            package = contract.surface_package_of(target)
            if (
                package is not None
                and target != package
                and importer_package != package
                and not contract.is_sanctioned(target)
                and target in modules
            ):
                findings.append(Finding(
                    "deep-import", info.display, lineno, col,
                    f"{info.name} imports {target}, an internal of "
                    f"{package}; use the package surface or a "
                    "sanctioned submodule",
                ))
    return findings


def _check_fork_safety(modules, contract):
    findings = []
    for info in modules.values():
        findings.extend(info.capture_findings)

    index = _function_index(modules)
    flagged = set()
    for entry in contract.worker_entrypoints:
        if entry not in index:
            continue
        entry_summary, entry_info = index[entry]
        frontier = [(entry_summary, entry_info)]
        for dotted, _, _ in entry_summary.calls:
            if dotted in index:
                frontier.append(index[dotted])
        for summary, owner in frontier:
            hazards = summary.global_reads & set(owner.fork_hazard_globals)
            for name in sorted(hazards):
                key = (owner.name, name)
                if key in flagged:
                    continue
                flagged.add(key)
                findings.append(Finding(
                    "fork-unsafe-global", owner.display,
                    owner.fork_hazard_globals[name], 0,
                    f"mutable module global {name!r} is read by "
                    f"{summary.qualname} (reachable from worker entry "
                    f"{entry}); workers mutate private copies",
                ))
    return findings


def _check_nondet_escape(modules, contract):
    findings = []
    index = _function_index(modules)
    for info in modules.values():
        if not matches_any(info.resolved, contract.artifact_modules):
            continue
        for summary in info.functions.values():
            for dotted, lineno, col in summary.calls:
                callee = index.get(dotted)
                if callee is None:
                    continue
                callee_summary, callee_info = callee
                if callee_info is info:
                    continue  # same module: lint's unsorted-items turf
                if matches_any(
                    callee_info.resolved, contract.artifact_modules
                ):
                    continue  # callee is checked as an artifact module
                if callee_summary.order_dependent:
                    findings.append(Finding(
                        "nondet-escape", info.display, lineno, col,
                        f"{dotted}() builds its return value by "
                        "unsorted dict/set iteration and "
                        f"{summary.qualname} exports it",
                    ))
    return findings


def _check_blocking(modules, contract):
    findings = []
    index = _function_index(modules)
    for info in modules.values():
        layer = contract.layer_of(info.name)
        if layer not in contract.process_layers:
            continue
        if matches_any(info.resolved, contract.blocking_allow):
            continue
        for summary in info.functions.values():
            if not summary.is_generator:
                continue
            for dotted, lineno, col in summary.blocking:
                findings.append(Finding(
                    "sim-blocking-call", info.display, lineno, col,
                    f"DES process body {summary.qualname} calls "
                    f"{dotted}() — real host I/O inside simulated time",
                ))
            for dotted, lineno, col in summary.calls:
                callee = index.get(dotted)
                if callee is None:
                    continue
                callee_summary, callee_info = callee
                if callee_summary.is_generator or not callee_summary.blocking:
                    continue
                if matches_any(
                    callee_info.resolved, contract.blocking_allow
                ):
                    continue
                blocked = callee_summary.blocking[0][0]
                findings.append(Finding(
                    "sim-blocking-call", info.display, lineno, col,
                    f"DES process body {summary.qualname} calls "
                    f"{dotted}(), which performs real host I/O "
                    f"({blocked}())",
                ))
    return findings


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------


def archcheck_paths(paths, contract=None, contract_path=None):
    """Run every rule family over the program under ``paths``.

    Returns ``(findings, errors)`` in the shared checker shape. The
    contract comes from ``contract`` (an :class:`ArchContract`), else
    from ``contract_path``, else from :data:`CONTRACT_NAME` in the
    working directory.
    """
    errors = []
    if contract is None:
        contract, contract_errors = load_contract(contract_path)
        if contract is None:
            return [], contract_errors
        errors.extend(contract_errors)

    modules, program_errors = build_program(paths)
    errors.extend(program_errors)

    findings = []
    findings.extend(_check_layers(modules, contract))
    findings.extend(_check_fork_safety(modules, contract))
    findings.extend(_check_nondet_escape(modules, contract))
    findings.extend(_check_blocking(modules, contract))

    by_path = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    kept = []
    for info in modules.values():
        line_allows, file_allows, pragma_errors = parse_pragmas(
            info.source, info.display, applicable=set(RULES_BY_ID)
        )
        errors.extend(pragma_errors)
        kept.extend(apply_pragmas(
            by_path.get(info.display, ()), line_allows, file_allows
        ))

    unique = {}
    for finding in sorted(
        kept, key=lambda f: (f.path, f.line, f.rule, f.col)
    ):
        unique.setdefault((finding.key(), finding.col), finding)
    return list(unique.values()), errors


def render_findings(findings, show_hints=True):
    """Human-readable report lines for a list of findings."""
    return _render_findings(findings, RULES_BY_ID, show_hints=show_hints)
