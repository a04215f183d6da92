"""Semantic checks: unit consistency and resource-protocol safety.

The determinism linter (:mod:`repro.analysis.lint`) catches syntactic
hazards — patterns that break bit-identical replay. This checker
catches *semantic* hazards: code that replays perfectly and computes
the wrong number. Every figure the reproduction regenerates is a
latency or utilization value, so the two silent corruptions are

* **mixed units** — the engine clock counts microseconds, the paper
  reports milliseconds, cost rates are nanoseconds per element; one
  missed conversion shifts a figure by 1000x (or worse, by 1000x only
  on one code path); and
* **leaked simulated resources** — a CPU core, DSP queue slot, or GPU
  grant still held when an exception unwinds a process (an interrupt:
  one that arrives at a yield) distorts exactly the queueing and
  contention behaviour Figs. 5-10 measure, and only for the *rest* of
  that run.

Two passes implement this (``python -m repro semcheck``):

**Units pass.** Unit types are inferred from name suffixes (``_us`` /
``_ms`` / ``_ns`` / ``_mhz`` / ``_uj`` / ``_mj`` / ``_watts`` /
``_celsius`` — see :mod:`repro.analysis.unit_types`) on parameters,
attributes, locals, and return names, and propagated through assignment
and arithmetic (watts times microseconds is microjoules).
Cross-unit arithmetic and comparison, bare ``* 1000`` / ``/ 1000.0``
scale factors outside :mod:`repro.sim.units`, misused converters, and
unit-suffixed arguments bound to differently-suffixed parameters
(including the documented microsecond contracts of ``timeout()`` /
``schedule_callback()`` / ``Sleep`` / ``Work``) are findings.

**Protocol pass.** A flow-sensitive walk of generator process bodies
pairs ``Resource.request()`` with ``release()`` across ``yield``
points and ``try``/``except``/``finally`` edges: a request with no
release on some path (including the interrupt path at any ``yield``),
a release of a never-requested handle, a double release, a ``yield``
of a non-Event value, and a yieldless ``while True`` (zero-time
livelock) are findings.

Suppression and exit codes are shared with the linter
(``# repro: allow[rule-id]`` pragmas, 0/1/2); see
``docs/determinism.md``.
"""

import ast

from repro.analysis import unit_types
from repro.analysis.common import (
    AliasResolver,
    RuleInfo,
    assignment,
    check_module,
    check_paths,
    matches_any,
)
from repro.analysis.flow import (
    FlowWalker,
    has_own_yield,
    is_request_call,
    own_nodes,
    process_like,
    release_handle,
)

RULES = (
    RuleInfo(
        "unit-mismatch",
        "arithmetic, comparison, or assignment mixes units",
        "convert explicitly through repro.sim.units (ms()/to_ms()/"
        "ns()/...) so both sides share a unit; the suffix on each name "
        "declares its unit.",
    ),
    RuleInfo(
        "magic-conversion",
        "bare power-of-1000 unit scale in arithmetic",
        "spell the conversion with a repro.sim.units helper (to_ms, ms, "
        "ns, to_ns, to_mj, fps_from_ms) or a named units constant; a "
        "bare 1000 hides which way the conversion goes.",
    ),
    RuleInfo(
        "unit-arg-mismatch",
        "argument unit differs from the parameter's declared unit",
        "convert at the call site with repro.sim.units; the parameter's "
        "suffix (or its documented contract — timeout() and "
        "schedule_callback() take microseconds) is the unit the callee "
        "expects.",
    ),
    RuleInfo(
        "resource-leak",
        "resource request not released on every path",
        "hold the grant in `with resource.request() as req:` (released "
        "automatically, even when the process is interrupted at a "
        "yield) or wrap every yield made while holding it in "
        "try/finally: req.release().",
    ),
    RuleInfo(
        "double-release",
        "handle released when it is already released",
        "release exactly once per request; a with-block releases "
        "automatically at exit, so drop the extra explicit release().",
    ),
    RuleInfo(
        "release-unowned",
        "release of a handle that was never requested on some path",
        "move the release() into the branch that issued the request() "
        "(or request unconditionally); releasing an ungranted handle "
        "raises ValueError at runtime.",
    ),
    RuleInfo(
        "yield-non-event",
        "process body yields a value that is not an Event",
        "yield Event-shaped requests only (Sleep/Work/WaitFor, "
        "sim.timeout(), resource requests, store.get()); anything else "
        "makes Process raise TypeError mid-simulation.",
    ),
    RuleInfo(
        "yieldless-loop",
        "unbounded loop with no yield in a process body",
        "yield inside the loop (e.g. sim.timeout(...)) so simulated "
        "time can advance; a yieldless `while True:` livelocks the "
        "engine at a single timestamp.",
    ),
)

RULES_BY_ID = {rule.id: rule for rule in RULES}


#: fnmatch globs (against the resolved posix path) naming the conversion
#: boundary itself: :mod:`repro.sim.units` mixes units *by definition*,
#: so the whole units pass is skipped there.
UNITS_MODULES = ("*/sim/units.py",)

#: Comparison operators that require both sides in the same unit.
_ORDERED_CMP = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

#: Sentinel for a name assigned conflicting units (treated as unknown).
_CONFLICT = "?conflict"


# ---------------------------------------------------------------------------
# Units pass
# ---------------------------------------------------------------------------


class _UnitsPass:
    """Suffix-inferred unit propagation over one scope (module or def)."""

    def __init__(self, module, scope_body, func=None):
        self.module = module
        self.scope_body = scope_body
        self.func = func
        self.env = {}

    # -- environment ---------------------------------------------------

    def build_env(self):
        if self.func is not None:
            args = self.func.args
            params = list(args.posonlyargs) + list(args.args) + list(
                args.kwonlyargs
            )
            for param in params:
                unit = unit_types.suffix_unit(param.arg.lower())
                if unit is not None:
                    self.env[param.arg] = unit
        # Two rounds so chained assignments (a = b_us; c = a) settle.
        for _round in range(2):
            for node in own_nodes(self.scope_body):
                parts = assignment(node)
                if parts is None:
                    continue
                targets, value = parts
                inferred = self.unit_of(value)
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    declared = unit_types.suffix_unit(target.id.lower())
                    if declared is not None:
                        self.env[target.id] = declared
                    elif inferred is not None:
                        known = self.env.get(target.id)
                        if known is not None and known != inferred:
                            self.env[target.id] = _CONFLICT
                        else:
                            self.env[target.id] = inferred

    # -- unit inference (pure: never flags) ------------------------------

    def unit_of(self, node):
        """Infer the unit of an expression, or ``None`` when unknown."""
        if isinstance(node, ast.Name):
            unit = self.env.get(node.id)
            if unit == _CONFLICT:
                return None
            if unit is not None:
                return unit
            return unit_types.suffix_unit(node.id.lower())
        if isinstance(node, ast.Attribute):
            return unit_types.suffix_unit(node.attr.lower())
        if isinstance(node, ast.Subscript):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                return unit_types.suffix_unit(key.value.lower())
            return None
        if isinstance(node, ast.Call):
            return self._unit_of_call(node)
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand)
        if isinstance(node, ast.BinOp):
            return self._unit_of_binop(node)
        if isinstance(node, ast.IfExp):
            return self._merge_units(
                [self.unit_of(node.body), self.unit_of(node.orelse)]
            )
        if isinstance(node, ast.BoolOp):
            return self._merge_units(
                [self.unit_of(value) for value in node.values]
            )
        if isinstance(node, ast.Starred):
            return self.unit_of(node.value)
        return None

    @staticmethod
    def _merge_units(units):
        known = {unit for unit in units if unit is not None}
        return known.pop() if len(known) == 1 else None

    def _unit_of_call(self, node):
        dotted = self.module.resolver.dotted(node.func)
        signature = unit_types.converter_signature(dotted)
        if signature is not None:
            return signature[1]
        leaf = _call_leaf(node.func)
        if leaf is not None:
            return unit_types.suffix_unit(leaf.lower())
        return None

    def _unit_of_binop(self, node):
        left = self.unit_of(node.left)
        right = self.unit_of(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None:
                return left if left == right else None
            return left or right
        if isinstance(node.op, ast.Mult):
            if left is not None and right is not None:
                return unit_types.product_unit(left, right)
            return left or right
        if isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
            if left is not None and right is None:
                return left
            return None
        return None

    # -- flagging walk ---------------------------------------------------

    def run(self):
        self.build_env()
        for node in own_nodes(self.scope_body):
            if isinstance(node, ast.BinOp):
                self._check_binop(node)
            elif isinstance(node, ast.Compare):
                self._check_compare(node)
            elif isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._check_assign(node)
            elif isinstance(node, ast.AugAssign):
                self._check_augassign(node)
            elif isinstance(node, ast.Return):
                self._check_return(node)

    def _check_binop(self, node):
        if isinstance(node.op, (ast.Mult, ast.Div)):
            for operand in (node.left, node.right):
                if isinstance(operand, ast.Constant) and \
                        unit_types.is_magic_scale(operand.value):
                    self.module.flag(
                        "magic-conversion",
                        node,
                        f"bare {operand.value!r} scale factor; the "
                        "conversion direction belongs in a repro.sim."
                        "units helper",
                    )
                    break
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Div)):
            left = self.unit_of(node.left)
            right = self.unit_of(node.right)
            if (
                left is not None
                and right is not None
                and left != right
                and (
                    isinstance(node.op, (ast.Add, ast.Sub))
                    or unit_types.same_dimension(left, right)
                )
            ):
                op = {ast.Add: "+", ast.Sub: "-", ast.Div: "/"}[
                    type(node.op)
                ]
                self.module.flag(
                    "unit-mismatch",
                    node,
                    f"`{left}` {op} `{right}`: operands are in "
                    "different units",
                )

    def _check_compare(self, node):
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, _ORDERED_CMP):
                continue
            left = self.unit_of(operands[index])
            right = self.unit_of(operands[index + 1])
            if left is not None and right is not None and left != right:
                self.module.flag(
                    "unit-mismatch",
                    node,
                    f"comparison between `{left}` and `{right}` values",
                )

    def _check_call(self, node):
        dotted = self.module.resolver.dotted(node.func)
        signature = unit_types.converter_signature(dotted)
        leaf = _call_leaf(node.func)
        if signature is not None:
            expected, _returns = signature
            if expected is not None and node.args:
                actual = self.unit_of(node.args[0])
                if actual is not None and actual != expected:
                    self.module.flag(
                        "unit-arg-mismatch",
                        node,
                        f"{dotted}() converts from `{expected}` but the "
                        f"argument is `{actual}`",
                    )
            return
        if leaf is None:
            return
        parameters = unit_types.declared_parameters(leaf)
        if not parameters:
            parameters = self.module.module_signatures.get(leaf) or ()
        for position, param_name, expected in parameters:
            argument = None
            for keyword in node.keywords:
                if keyword.arg == param_name:
                    argument = keyword.value
            if argument is None and position < len(node.args):
                argument = node.args[position]
            if argument is None:
                continue
            actual = self.unit_of(argument)
            if actual is not None and actual != expected:
                self.module.flag(
                    "unit-arg-mismatch",
                    argument,
                    f"{leaf}() parameter `{param_name}` is declared "
                    f"`{expected}` but the argument is `{actual}`",
                )

    def _check_assign(self, node):
        parts = assignment(node)
        if parts is None:
            return
        targets, value = parts
        inferred = self.unit_of(value)
        if inferred is None:
            return
        for target in targets:
            declared = None
            if isinstance(target, ast.Name):
                declared = unit_types.suffix_unit(target.id.lower())
            elif isinstance(target, ast.Attribute):
                declared = unit_types.suffix_unit(target.attr.lower())
            if declared is not None and declared != inferred:
                self.module.flag(
                    "unit-mismatch",
                    node,
                    f"assigning a `{inferred}` value to a name declared "
                    f"`{declared}`",
                )

    def _check_augassign(self, node):
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        declared = None
        if isinstance(node.target, ast.Name):
            declared = unit_types.suffix_unit(node.target.id.lower())
        elif isinstance(node.target, ast.Attribute):
            declared = unit_types.suffix_unit(node.target.attr.lower())
        inferred = self.unit_of(node.value)
        if declared is not None and inferred is not None \
                and declared != inferred:
            self.module.flag(
                "unit-mismatch",
                node,
                f"accumulating a `{inferred}` value into a name declared "
                f"`{declared}`",
            )

    def _check_return(self, node):
        if self.func is None or node.value is None:
            return
        declared = unit_types.suffix_unit(self.func.name.lower())
        if declared is None:
            return
        inferred = self.unit_of(node.value)
        if inferred is not None and inferred != declared:
            self.module.flag(
                "unit-mismatch",
                node,
                f"function name declares `{declared}` but returns a "
                f"`{inferred}` value",
            )


def _call_leaf(func):
    """The rightmost name of a call target, or ``None``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _collect_module_signatures(tree):
    """Same-module callables with unit-suffixed parameters.

    Maps a callable leaf name to a tuple of
    ``(call position, parameter name, unit)`` entries. Methods drop
    their ``self``/``cls`` slot; a class name maps to its ``__init__``.
    Colliding definitions with different unit signatures are dropped —
    the pass only checks what it can resolve unambiguously.
    """

    signatures = {}

    def record(name, params, skip_first):
        entries = []
        offset = 1 if skip_first else 0
        for index, param in enumerate(params[offset:]):
            unit = unit_types.suffix_unit(param.arg.lower())
            if unit is not None:
                entries.append((index, param.arg, unit))
        entries = tuple(entries)
        if name in signatures and signatures[name] != entries:
            signatures[name] = None
        else:
            signatures[name] = entries

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = list(node.args.posonlyargs) + list(node.args.args)
            record(node.name, params, skip_first=False)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    params = list(stmt.args.posonlyargs) + list(
                        stmt.args.args
                    )
                    if stmt.name == "__init__":
                        record(node.name, params, skip_first=True)
                    else:
                        # Re-record the method with the self slot
                        # removed; collisions with the plain-function
                        # record of the same name resolve to ambiguity.
                        record(stmt.name, params, skip_first=True)
    return {
        name: entries
        for name, entries in signatures.items()
        if entries  # drop ambiguous (None) and suffix-free signatures
    }


# ---------------------------------------------------------------------------
# Protocol pass
# ---------------------------------------------------------------------------

#: Handle states tracked by the protocol pass.
_REQ = "requested"
_REL = "released"
_ABSENT = "absent"

def _is_plainly_non_event(node):
    """Expressions that are certainly not Event instances."""
    if node is None:  # bare ``yield``
        return True
    return isinstance(
        node,
        (
            ast.Constant,
            ast.List,
            ast.Tuple,
            ast.Dict,
            ast.Set,
            ast.BinOp,
            ast.Compare,
            ast.BoolOp,
            ast.JoinedStr,
        ),
    )


class _ProtocolPass(FlowWalker):
    """Flow-sensitive request/release pairing over one generator body.

    The state maps a handle name to the set of its states on the paths
    reaching here. Guard frames name the handles an enclosing
    ``finally``, interrupt-catching handler, or handle-``with`` releases.
    """

    def __init__(self, module, func):
        super().__init__({})
        self.module = module
        self.func = func
        self.leak_reported = set()
        self.process_like = process_like(func)

    # -- state -----------------------------------------------------------

    def copy(self, state):
        return {name: set(states) for name, states in state.items()}

    def merge(self, a, b):
        return {
            name: a.get(name, {_ABSENT}) | b.get(name, {_ABSENT})
            for name in set(a) | set(b)
        }

    def _protected(self, name):
        return any(name in frame for frame in self.guards)

    def _leak(self, name, node, message):
        if name in self.leak_reported:
            return
        self.leak_reported.add(name)
        self.module.flag("resource-leak", node, message)

    def _check_held_at_exit(self, node, how):
        for name, states in sorted(self.state.items()):
            if _REQ in states and not self._protected(name):
                self._leak(
                    name,
                    node,
                    f"request `{name}` is still held {how}",
                )

    # -- transfer --------------------------------------------------------

    def transfer(self, node):
        for kind, name, discarded, event in _scan_events(node):
            if kind == "request":
                self._apply_request(name, discarded, event)
            elif kind == "release":
                self._apply_release(name, event)
            else:
                self._apply_yield(event)
        if isinstance(node, ast.Return):
            self._check_held_at_exit(node, "at this return")
        elif isinstance(node, ast.Raise):
            self._check_held_at_exit(node, "when this exception propagates")

    def _apply_request(self, name, discarded, node):
        if discarded or name is None:
            if discarded:
                self._leak(
                    f"<anonymous:{node.lineno}>",
                    node,
                    "request() handle discarded; the grant can never be "
                    "released",
                )
            return
        states = self.state.get(name)
        if states is not None and _REQ in states:
            self._leak(
                name,
                node,
                f"`{name}` reassigned by request() while the previous "
                "grant is still held",
            )
        self.state[name] = {_REQ}

    def _apply_release(self, name, node):
        states = self.state.get(name)
        if states is None:
            return
        if states <= {_REL}:
            self.module.flag(
                "double-release",
                node,
                f"`{name}` has already been released on every path "
                "reaching this release()",
            )
        elif _REL in states and not self.cleanup:
            # Outside cleanup code; a handler or finally body may
            # release what the body's own release did not reach.
            self.module.flag(
                "double-release",
                node,
                f"`{name}` was already released on some path reaching "
                "this release()",
            )
        elif _ABSENT in states:
            self.module.flag(
                "release-unowned",
                node,
                f"`{name}` was never requested on some path reaching "
                "this release()",
            )
        self.state[name] = {_REL}

    def _apply_yield(self, node):
        if self.process_like and isinstance(node, ast.Yield) \
                and _is_plainly_non_event(node.value):
            what = "a bare yield" if node.value is None else (
                "a non-Event value"
            )
            self.module.flag(
                "yield-non-event",
                node,
                f"process yields {what}; the engine only accepts Events",
            )
        for name, states in sorted(self.state.items()):
            if _REQ in states and not self._protected(name):
                self._leak(
                    name,
                    node,
                    f"`{name}` is held across a yield with no finally/"
                    "with protection; an interrupt here leaks the grant",
                )

    def enter_with(self, stmt):
        frame = set()
        for item in stmt.items:
            context = item.context_expr
            if is_request_call(context):
                if isinstance(item.optional_vars, ast.Name):
                    name = item.optional_vars.id
                    self._apply_request(name, False, context)
                    frame.add(name)
                # ``with res.request():`` grants and auto-releases; no
                # handle escapes, so nothing to track.
            elif isinstance(context, ast.Name) and context.id in self.state:
                frame.add(context.id)
            else:
                self.transfer(context)
        self.guards.append(frame)
        return frame

    def exit_with(self, frame):
        self.guards.pop()
        for name in frame:
            # The context manager releases idempotently at exit.
            self.state[name] = {_REL}

    def enter_loop(self, stmt):
        if not self.process_like or not isinstance(stmt, ast.While):
            return
        test = stmt.test
        if not (isinstance(test, ast.Constant) and bool(test.value)):
            return
        for node in own_nodes(stmt.body):
            if isinstance(
                node,
                (ast.Yield, ast.YieldFrom, ast.Return, ast.Break, ast.Raise),
            ):
                return
        self.module.flag(
            "yieldless-loop",
            stmt,
            "`while True:` with no yield never advances simulated time",
        )

    def run(self):
        self.walk(self.func.body)
        end = self.func.body[-1] if self.func.body else self.func
        self._check_held_at_exit(end, "when the process body ends")


def _scan_events(stmt):
    """Requests, releases and yields in one statement, in source order."""
    events = []
    for node in ast.walk(stmt):
        if is_request_call(node):
            target = None
            if (
                isinstance(stmt, ast.Assign)
                and stmt.value is node
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                target = stmt.targets[0].id
            discarded = isinstance(stmt, ast.Expr) and stmt.value is node
            events.append(("request", target, discarded, node))
        elif isinstance(node, ast.Call):
            handle = release_handle(node)
            if handle is not None:
                events.append(("release", handle, False, node))
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            events.append(("yield", None, False, node))
    events.sort(key=lambda item: (item[3].lineno, item[3].col_offset))
    return events


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class _Module:
    """One module's semcheck run: the facts both passes share."""

    def __init__(self, sink, tree):
        self.flag = sink.flag
        self.resolver = AliasResolver(tree)
        self.module_signatures = _collect_module_signatures(tree)


def semcheck_source(source, path, resolved_path=None):
    """Semcheck one module's source text; returns ``(findings, errors)``.

    ``path`` is the display path attached to findings; ``resolved_path``
    (defaulting to ``path``) is what :data:`UNITS_MODULES` matches.
    """

    def analyze(tree, sink):
        module = _Module(sink, tree)
        functions = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if not matches_any(resolved_path or path, UNITS_MODULES):
            _UnitsPass(module, tree.body).run()
            for func in functions:
                _UnitsPass(module, func.body, func=func).run()
        for func in functions:
            if has_own_yield(func):
                _ProtocolPass(module, func).run()

    findings, errors, _ = check_module(source, path, RULES_BY_ID, analyze)
    return findings, errors


def semcheck_paths(paths):
    """Semcheck every ``*.py`` file under ``paths``."""
    return check_paths(paths, semcheck_source)
