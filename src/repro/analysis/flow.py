"""One flow-sensitive walker over a function body, plus the DES predicates.

semcheck's protocol pass and racecheck's lockset pass are both abstract
interpretations of a generator process body: they carry a state down
every path, fork it at branches, join it where paths meet, and update it
one simple statement at a time. :class:`FlowWalker` owns the control
flow; a subclass owns the state and supplies

* ``copy(state)`` and ``merge(a, b)`` — the join, which must return a
  fresh state;
* ``transfer(node)`` — the effect of one simple statement, or of the
  test/iterator expression that heads an ``if`` or a loop;
* ``enter_with(stmt)``/``exit_with(token)`` — a ``with`` header and
  its exit;
* optionally ``enter_loop(stmt)`` and ``begin_pass()``.

The predicates every DES checker needs — what a request, a release and
an Interrupted-catching handler look like, and whether a generator is a
process body at all — live here too, so the checkers agree on them.
"""

import ast
import functools

#: Statements after which the current path does not fall through.
_TERMINATORS = (ast.Return, ast.Raise, ast.Break, ast.Continue)

#: Definitions whose bodies are separate scopes.
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Call names that construct yieldable events (process-body heuristic).
_EVENT_CONSTRUCTORS = frozenset(
    {"Sleep", "Work", "WaitFor", "Timeout", "Event", "AllOf", "AnyOf"}
)
_EVENT_METHODS = frozenset(
    {"timeout", "event", "request", "any_of", "all_of", "get", "process"}
)


def own_nodes(nodes, scopes=_DEFS):
    """Walk ``nodes`` and their descendants, not entering nested ``scopes``.

    A nested scope's node is yielded itself; its body is not. By default
    only function definitions are nested scopes: the units and protocol
    checks also cover lambdas and class bodies written inside a scope.
    """
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, scopes):
            stack.extend(ast.iter_child_nodes(node))


def scope_names(func, nodes):
    """``(locals, declared_globals)`` of one function scope.

    Locals are the parameters plus every name ``nodes`` store to, less
    the names the scope declares ``global``.
    """
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [
        arg for arg in (args.vararg, args.kwarg) if arg is not None
    ]
    names = {param.arg for param in params}
    declared = set()
    for node in nodes:
        if isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names - declared, declared


def has_own_yield(func):
    """Whether ``func`` itself (not a nested def) is a generator."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in own_nodes(func.body)
    )


def is_request_call(node):
    """``<resource>.request()`` — a Resource acquisition."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "request"
    )


def release_handle(node):
    """Handle name a release call targets, or ``None``.

    Both forms :mod:`repro.sim.resources` supports count:
    ``handle.release()`` and ``resource.release(handle)``.
    """
    if not isinstance(node, ast.Call) or not isinstance(
        node.func, ast.Attribute
    ) or node.func.attr != "release":
        return None
    if not node.args and isinstance(node.func.value, ast.Name):
        return node.func.value.id
    if len(node.args) == 1 and isinstance(node.args[0], ast.Name):
        return node.args[0].id
    return None


def released_names(nodes):
    """Handle names released anywhere under ``nodes``."""
    names = set()
    for stmt in nodes:
        for node in ast.walk(stmt):
            handle = release_handle(node)
            if handle is not None:
                names.add(handle)
    return names


def catches_interrupt(handler):
    """Whether an except clause would catch :class:`Interrupted`."""
    if handler.type is None:
        return True
    names = set()
    nodes = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return bool(names & {"Interrupted", "Exception", "BaseException"})


def _is_eventish(node, request_names):
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id in _EVENT_CONSTRUCTORS
        if isinstance(node.func, ast.Attribute):
            return node.func.attr in _EVENT_METHODS
        return False
    if isinstance(node, ast.Name):
        return node.id in request_names
    return False


def process_like(func, stages=False):
    """Whether generator ``func`` looks like a DES process body.

    It yields an Event-shaped value or requests a Resource; a data
    generator that never touches the simulation DSL does neither. With
    ``stages``, a generator that delegates through ``yield from <call>``
    counts too: racecheck analyzes the stages of a process, while
    semcheck's Event checks would misfire on data generators that
    recurse that way.
    """
    request_names = {
        stmt.targets[0].id
        for stmt in own_nodes(func.body)
        if isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and is_request_call(stmt.value)
    }
    for node in own_nodes(func.body):
        if (
            isinstance(node, ast.Yield)
            and node.value is not None
            and _is_eventish(node.value, request_names)
        ):
            return True
        if stages and isinstance(node, ast.YieldFrom) and isinstance(
            node.value, ast.Call
        ):
            return True
        if is_request_call(node):
            return True
    return False


class FlowWalker:
    """Walk a function body's control flow over a subclass's state.

    Paths that end in ``return``/``raise``/``break``/``continue`` drop
    out of the join after their branch. A loop body is walked twice,
    the second time from the join of the entry state and the first
    pass, so state carried over the back edge is seen. An exception
    handler starts from the join of the try's entry and body-exit
    states, since it can run after any prefix of the body.
    """

    def __init__(self, state):
        self.state = state
        #: One frame per enclosing interrupt guard: a try body with a
        #: ``finally`` or an Interrupted-catching handler (the handle
        #: names that cleanup releases), or a ``finally`` body (empty).
        #: Subclasses may push frames of their own (``with`` blocks).
        self.guards = []
        #: Depth of enclosing except-handler and ``finally`` bodies.
        self.cleanup = 0

    # -- subclass hooks --------------------------------------------------

    def copy(self, state):
        raise NotImplementedError

    def merge(self, a, b):
        raise NotImplementedError

    def transfer(self, node):
        raise NotImplementedError

    def enter_with(self, stmt):
        """Apply a ``with`` header; the token is handed to exit_with."""
        raise NotImplementedError

    def exit_with(self, token):
        raise NotImplementedError

    def enter_loop(self, stmt):
        """Called once per loop, after its test/iterator is transferred."""

    def begin_pass(self):
        """Called before each walk of a loop body and of its else."""

    # -- control flow ----------------------------------------------------

    def walk(self, body):
        """Walk a statement list; False when every path through it ends."""
        for stmt in body:
            if isinstance(stmt, _DEFS + (ast.ClassDef,)):
                continue  # nested scopes are analyzed on their own
            if isinstance(stmt, ast.If):
                live = self._walk_if(stmt)
            elif isinstance(stmt, (ast.While, ast.For)):
                live = self._walk_loop(stmt)
            elif isinstance(stmt, ast.Try):
                live = self._walk_try(stmt)
            elif isinstance(stmt, ast.With):
                token = self.enter_with(stmt)
                live = self.walk(stmt.body)
                self.exit_with(token)
            else:
                self.transfer(stmt)
                live = not isinstance(stmt, _TERMINATORS)
            if not live:
                return False
        return True

    def _walk_if(self, stmt):
        self.transfer(stmt.test)
        entry = self.copy(self.state)
        then_live = self.walk(stmt.body)
        then_state = self.state
        self.state = entry
        else_live = self.walk(stmt.orelse)
        if then_live and else_live:
            self.state = self.merge(then_state, self.state)
        elif then_live:
            self.state = then_state
        return then_live or else_live

    def _walk_loop(self, stmt):
        self.transfer(stmt.test if isinstance(stmt, ast.While) else stmt.iter)
        self.enter_loop(stmt)
        entry = self.copy(self.state)
        for _pass in range(2):
            self.begin_pass()
            self.walk(stmt.body)
            self.state = self.merge(entry, self.state)
        self.begin_pass()
        self.walk(stmt.orelse)
        return True

    def _walk_try(self, stmt):
        interrupt_handlers = [
            handler for handler in stmt.handlers if catches_interrupt(handler)
        ]
        guarded = bool(stmt.finalbody or interrupt_handlers)
        if guarded:
            self.guards.append(released_names(
                stmt.finalbody
                + [node for handler in interrupt_handlers
                   for node in handler.body]
            ))
        entry = self.copy(self.state)
        body_live = self.walk(stmt.body)
        if guarded:
            self.guards.pop()
        body_state = self.copy(self.state)
        exits = []
        if body_live and self.walk(stmt.orelse):
            exits.append(self.state)
        self.cleanup += 1
        for handler in stmt.handlers:
            self.state = self.merge(entry, body_state)
            if self.walk(handler.body):
                exits.append(self.state)
        if exits:
            self.state = functools.reduce(self.merge, exits)
        else:
            self.state = self.merge(entry, body_state)
        live = bool(exits)
        if stmt.finalbody:
            self.guards.append(set())
            live = self.walk(stmt.finalbody) and live
            self.guards.pop()
        self.cleanup -= 1
        return live
