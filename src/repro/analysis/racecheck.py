"""Race analysis for the cooperative DES: yields are preemption points.

The engine (:mod:`repro.sim.process`) runs process bodies as
generators: between two ``yield``\\ s a body executes atomically, and a
yield is the *only* place another process — or an engine callback, or
an :class:`~repro.sim.events.Interrupted` thrown by ``interrupt()`` —
can run. That discipline makes most locking unnecessary, but it also
means every multi-step update of shared state that straddles a yield
is a race with whoever else can touch that state while the body is
suspended. Such a bug replays bit-identically (the interleaving is
deterministic per seed) and fails no invariant check; it just shifts
the contention numbers the paper's Figs. 5-10 report.

``python -m repro racecheck`` adapts classic dynamic-race machinery to
this cooperative world, statically:

* **preemption points** are the ``yield``\\ s of a process-like
  generator body (:func:`repro.analysis.flow.process_like`, stages
  reached through ``yield from`` included);
* **locksets** are :class:`~repro.sim.resources.Resource` grants held
  across those yields (``with res.request() as grant:`` or an explicit
  ``request()`` paired with ``handle.release()`` or
  ``resource.release(handle)``) — a grant held continuously from
  one access to the next excludes any other would-be holder in
  between, exactly like a mutex;
* **shared state** is an attribute path (``self.stats.calls``, a
  module global, ``router.outstanding`` through a captured object)
  that a *different* function in the module can also write or read —
  ``__init__``-time writes do not count, and state nobody else touches
  cannot race.

Rule families (each finding names the location and the yield-crossing
that makes it unsafe):

* ``atomicity-violation`` — shared state is read, the body yields, and
  the same state is written, with no Resource held across the window:
  a check-then-act or read-modify-write that another process can
  interleave with (lost update / stale decision).
* ``unguarded-shared-write`` — a lock-free write to state that every
  other accessor touches under a Resource; one undisciplined writer
  voids the protocol the locked sites rely on.
* ``stale-read-across-yield`` — a local caches a shared value, the
  body yields, and the local is then used as if current. Windowed
  deltas that compare the cached value against a *fresh* re-read in
  the same statement (``self._total_busy - last_busy``) are the
  intended idiom and do not fire.
* ``interrupt-unsafe-update`` — a multi-step update (an ``+=``/``-=``
  balance pair on one location, or writes to two fields of the same
  owner object) split across a yield outside any ``try``/``finally``:
  an interrupt delivered at the interior yield leaves the object torn
  for the rest of the run.
* ``lock-order-inversion`` — two Resources acquired in opposite
  orders on different paths; two processes interleaving at the
  interior yield deadlock. A ``yield``-while-holding inventory
  (:func:`lock_inventory`, ``--list-locks``) backs this rule.

Scope and honesty: the analysis is per-module (cross-module aliasing
is undecidable here), matches multi-hop attribute paths by their leaf
name (``self.kernel._total_busy`` vs ``kernel._total_busy``), and does
not model re-entry of one body by two processes over the same object.
Suppression, baselines, and exit codes are shared with the other
checkers (``# repro: allow[rule-id]``, an empty committed baseline,
0/1/2); see ``docs/analysis.md``.
"""

import ast
from dataclasses import dataclass

from repro.analysis.common import (
    MUTATOR_METHODS,
    RuleInfo,
    assignment,
    check_module,
    check_paths,
    display_path,
    read_sources,
)
from repro.analysis.common import render_findings as _render_findings
from repro.analysis.flow import (
    FlowWalker,
    has_own_yield,
    is_request_call,
    own_nodes,
    process_like,
    released_names,
    scope_names,
)

RULES = (
    RuleInfo(
        "atomicity-violation",
        "shared state read before a yield and written after it with no "
        "Resource held across the window",
        "re-read the shared value after the last yield so the decision "
        "and the write happen in one atomic step, or hold a Resource "
        "across the whole read-modify-write (`with lock.request():`); "
        "another process can run at the yield and invalidate the value "
        "the write is based on.",
    ),
    RuleInfo(
        "unguarded-shared-write",
        "lock-free write to state every other accessor touches under a "
        "Resource",
        "acquire the same Resource around this write (or move it into "
        "the existing locked region); one writer outside the lock "
        "invalidates what every locked reader assumes it excludes.",
    ),
    RuleInfo(
        "stale-read-across-yield",
        "local caches a shared value across a yield, then is used as "
        "if current",
        "re-read the shared attribute after the yield instead of using "
        "the cached local — writers may have run while this process "
        "was suspended. Intentional windowed deltas are fine when the "
        "using statement also re-reads the shared value fresh.",
    ),
    RuleInfo(
        "interrupt-unsafe-update",
        "multi-step shared update can be torn by Interrupted at an "
        "interior yield",
        "wrap the update in try/finally that commits the balancing "
        "write, or accumulate into locals and commit after the last "
        "yield in one atomic step; an interrupt at the interior yield "
        "otherwise leaves the object half-updated for the rest of the "
        "run.",
    ),
    RuleInfo(
        "lock-order-inversion",
        "Resources acquired in opposite orders on different paths",
        "pick one global acquisition order and nest every "
        "request() the same way; two processes that take the pair in "
        "opposite orders deadlock when they interleave at the yield "
        "inside the first grant.",
    ),
)

RULES_BY_ID = {rule.id: rule for rule in RULES}

#: Constructor-time writers never race with running processes.
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


# ---------------------------------------------------------------------------
# Attribute-chain plumbing
# ---------------------------------------------------------------------------


def _chain(node):
    """``(root_name, path)`` of a Name/Attribute/Subscript chain.

    A subscript truncates the path: ``self.d[k] = v`` is a mutation of
    the container ``self.d``, and anything reached through an element
    (``self.d[k].x``) is attributed to the container too, so both give
    ``('self', ('d',))``. Returns ``None`` for chains not rooted at a
    name.
    """
    parts = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            parts.clear()  # element attrs belong to the container
            node = node.value
        else:
            break
    if not isinstance(node, ast.Name):
        return None
    return node.id, tuple(reversed(parts))


def _chain_subscript_slices(node):
    """The slice expressions buried inside a chain (still plain reads)."""
    slices = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Subscript):
            slices.append(node.slice)
        node = node.value
    return slices


@dataclass(frozen=True)
class _Loc:
    """One shared-state location, canonical within a module.

    ``kind`` is ``"self"`` (instance attribute, ``owner`` is the class
    name), ``"obj"`` (reached through a non-self object reference,
    ``owner`` is the variable name), or ``"global"`` (module-level
    name). ``path`` is the attribute chain after the root.
    """

    kind: str
    owner: str
    path: tuple

    @property
    def leaf(self):
        return self.path[-1]

    @property
    def direct(self):
        """A plain ``self.attr`` — aliased only within its own class."""
        return self.kind == "self" and len(self.path) == 1

    def render(self):
        if self.kind == "global":
            return self.path[0]
        root = "self" if self.kind == "self" else self.owner
        return ".".join((root,) + self.path)


def _aliases(a, b):
    """Whether two locations may be the same object's state.

    Exact within a class for plain ``self.attr``; multi-hop paths and
    object references match by leaf name (``self.kernel._total_busy``
    aliases ``self._total_busy`` of the kernel class) — per-module, so
    the collision surface stays small.
    """
    if a.kind == "global" or b.kind == "global":
        return a.kind == b.kind and a.path[0] == b.path[0]
    if a.leaf != b.leaf:
        return False
    if a.direct and b.direct:
        return a.owner == b.owner
    return True


@dataclass(frozen=True)
class _Access:
    """One attribute access recorded by the module scan."""

    func: str  # unique body id, e.g. "FastRpcChannel.invoke:155"
    loc: _Loc
    kind: str  # "read" | "write"
    locked: bool  # lexically inside a `with *.request():` block
    is_init: bool


# ---------------------------------------------------------------------------
# Phase A: the module model (who can touch what, and under which lock)
# ---------------------------------------------------------------------------


class _Scope:
    """Name classification for one function body."""

    def __init__(self, func, cls, module_globals):
        self.cls = cls
        self.module_globals = module_globals
        self.locals, self.global_decls = scope_names(
            func, own_nodes(func.body)
        )

    def classify(self, root, path):
        """Map a chain to a :class:`_Loc`, or ``None`` for pure locals."""
        if root == "self" and self.cls is not None:
            if not path:
                return None
            return _Loc("self", self.cls, path)
        if root in self.global_decls or (
            root not in self.locals and root in self.module_globals
        ):
            if not path:
                return _Loc("global", root, (root,))
            return _Loc("obj", root, path)
        if path:
            return _Loc("obj", root, path)
        return None


def _iter_functions(tree):
    """Every function with its owning class name, in source order.

    Nested defs inherit the enclosing class so a closure's captured
    ``self`` still classifies as instance state.
    """

    def visit(nodes, cls):
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, cls
                yield from visit(node.body, cls)
            elif isinstance(
                node,
                (ast.If, ast.While, ast.For, ast.Try, ast.With),
            ):
                yield from visit(ast.iter_child_nodes(node), cls)

    yield from visit(tree.body, None)


class _ModuleModel:
    """The module's access table plus its analyzable process bodies."""

    def __init__(self, tree):
        self.accesses = []
        self.process_bodies = []  # (func, func_id, scope)
        self._alias_cache = {}
        self.module_globals = {
            target.id
            for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            if isinstance(target, ast.Name)
        }
        for func, cls in _iter_functions(tree):
            func_id = (
                f"{cls}.{func.name}:{func.lineno}"
                if cls
                else f"{func.name}:{func.lineno}"
            )
            scope = _Scope(func, cls, self.module_globals)
            is_init = cls is not None and func.name in _INIT_METHODS
            self._scan(func.body, (func_id, scope, is_init), locked=False)
            if has_own_yield(func) and process_like(func, stages=True):
                self.process_bodies.append((func, func_id, scope))

    def _scan(self, body, access, locked):
        """Phase A: record every access in ``body`` with its lock context.

        ``locked`` is lexical: inside a ``with <res>.request():`` block.
        """
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scopes are scanned on their own
            if not isinstance(
                stmt, (ast.If, ast.While, ast.For, ast.Try, ast.With)
            ):
                self._record(stmt, access, locked)
                continue
            children = list(ast.iter_child_nodes(stmt))
            inner = locked
            if isinstance(stmt, ast.With):
                headers = [item.context_expr for item in stmt.items]
                inner = locked or any(map(is_request_call, headers))
            else:
                headers = [c for c in children if isinstance(c, ast.expr)]
            for header in headers:
                self._record(header, access, locked)
            blocks = [c for c in children if isinstance(c, ast.stmt)] + [
                node for handler in getattr(stmt, "handlers", ())
                for node in handler.body
            ]
            self._scan(blocks, access, inner)

    def _record(self, node, access, locked):
        func_id, scope, is_init = access
        reads, writes, _yields = _collect_events(node)
        chains = [(chain, "read") for chain, _node in reads]
        chains += [(chain, "write") for chain, _node, _op in writes]
        for chain, kind in chains:
            loc = scope.classify(*chain)
            if loc is not None:
                self.accesses.append(
                    _Access(func_id, loc, kind, locked, is_init)
                )

    # -- queries ---------------------------------------------------------

    def _interferers(self, func_id, loc):
        key = (func_id, loc)
        cached = self._alias_cache.get(key)
        if cached is None:
            cached = tuple(
                access
                for access in self.accesses
                if access.func != func_id
                and not access.is_init
                and _aliases(loc, access.loc)
            )
            self._alias_cache[key] = cached
        return cached

    def has_interfering_writer(self, func_id, loc):
        return any(
            access.kind == "write"
            for access in self._interferers(func_id, loc)
        )

    def has_interferer(self, func_id, loc):
        return bool(self._interferers(func_id, loc))

    def locked_elsewhere(self, func_id, loc):
        """Every other accessor is disciplined under a Resource."""
        others = self._interferers(func_id, loc)
        return bool(others) and all(access.locked for access in others)


# ---------------------------------------------------------------------------
# Phase B: flow-sensitive pass over each process body
# ---------------------------------------------------------------------------
#
# The pass walks one generator body tracking three things per path:
# the live lockset (each acquisition gets a unique id, so an id seen
# at two accesses proves the grant was held *continuously* between
# them), a record per shared location of its latest read and latest
# write, and the shared-derived locals. Every yield marks all records
# "crossed" (and "unprotected" when no enclosing try/finally or
# Interrupted handler covers it); rule checks then reduce to record
# flags at the second access. Branches are walked on copies and
# merged conservatively (flags OR, locksets intersect).


def _new_record(node, acqs, op="set"):
    return {
        "node": node,
        "acqs": frozenset(acqs),
        "crossed": False,
        "unprot": False,
        "op": op,
    }


def _merge_records(a, b):
    merged = dict(
        a,
        acqs=a["acqs"] & b["acqs"],
        crossed=a["crossed"] or b["crossed"],
        unprot=a["unprot"] or b["unprot"],
        op=a["op"] if a["op"] == b["op"] else "set",
    )
    if "sources" in a:  # a shared-derived local's cached locations
        merged["sources"] = a["sources"] | b["sources"]
    return merged


def _copy_table(table):
    # Records are updated in place (a yield marks them crossed); their
    # source sets never are.
    return {key: dict(rec) for key, rec in table.items()}


def _merge_table(a, b):
    return {
        key: (
            _merge_records(a[key], b[key])
            if key in a and key in b
            else dict(a.get(key) or b[key])
        )
        for key in set(a) | set(b)
    }


def _copy_state(state):
    return {
        "reads": _copy_table(state["reads"]),
        "writes": _copy_table(state["writes"]),
        "groups": {
            group: _copy_table(members)
            for group, members in state["groups"].items()
        },
        "locals": _copy_table(state["locals"]),
        "live": dict(state["live"]),
        "handles": dict(state["handles"]),
    }


def _merge_states(a, b):
    return {
        "reads": _merge_table(a["reads"], b["reads"]),
        "writes": _merge_table(a["writes"], b["writes"]),
        "groups": {
            group: _merge_table(
                a["groups"].get(group, {}), b["groups"].get(group, {})
            )
            for group in set(a["groups"]) | set(b["groups"])
        },
        "locals": _merge_table(a["locals"], b["locals"]),
        # A grant held on only one path does not guard the join.
        "live": {
            acq: token
            for acq, token in a["live"].items()
            if acq in b["live"]
        },
        "handles": {
            name: acq
            for name, acq in a["handles"].items()
            if b["handles"].get(name) == acq
        },
    }


class _LockFacts:
    """Cross-body lock facts one module run accumulates."""

    def __init__(self):
        #: (held_token, acquired_token) -> (node, func_label), first seen.
        self.pairs = {}
        #: yield-while-holding inventory rows.
        self.inventory = []


class _BodyPass(FlowWalker):
    """The flow-sensitive race walk over one process body."""

    def __init__(self, sink, func, func_id, scope, model, locks):
        super().__init__({
            "reads": {},
            "writes": {},
            "groups": {},
            "locals": {},
            "live": {},  # acq_id -> lock token
            "handles": {},  # handle local name -> acq_id
        })
        self.sink = sink
        self.func_id = func_id
        self.scope = scope
        self.model = model
        self.locks = locks
        self.acq_seq = 0
        self.flagged = set()
        # Reads are only worth tracking for locations this body also
        # writes (atomicity needs the read-...-write pair).
        self.written_locs = set()
        for stmt in func.body:
            _reads, writes, _yields = _collect_events(stmt)
            for chain, _node, _op in writes:
                loc = scope.classify(*chain)
                if loc is not None:
                    self.written_locs.add(loc)

    def _flag(self, rule, node, dedupe_key, message):
        key = (rule, dedupe_key)
        if key in self.flagged:
            return
        self.flagged.add(key)
        self.sink.flag(rule, node, message)

    # -- walker hooks ----------------------------------------------------

    def copy(self, state):
        return _copy_state(state)

    def merge(self, a, b):
        return _merge_states(a, b)

    def enter_loop(self, stmt):
        if isinstance(stmt, ast.For):
            self._bind_loop_targets(stmt.target)

    def begin_pass(self):
        # The group map resets per pass so each iteration's writes — a
        # complete, consistent update — don't pair across iterations.
        self.state["groups"] = {}

    def _bind_loop_targets(self, target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_loop_targets(element)
        elif isinstance(target, ast.Name):
            self.state["locals"].pop(target.id, None)

    def enter_with(self, stmt):
        acquired = []
        for item in stmt.items:
            context = item.context_expr
            if is_request_call(context):
                acquired.append(self._acquire(context))
                if isinstance(item.optional_vars, ast.Name):
                    self.state["handles"][item.optional_vars.id] = (
                        acquired[-1]
                    )
            else:
                self.transfer(context)
                if isinstance(item.optional_vars, ast.Name):
                    self.state["locals"].pop(item.optional_vars.id, None)
        return acquired

    def exit_with(self, acquired):
        for acq in acquired:
            self.state["live"].pop(acq, None)
        self.state["handles"] = {
            name: acq
            for name, acq in self.state["handles"].items()
            if acq not in acquired
        }

    def _acquire(self, request_call):
        """Take a fresh acquisition id for the requested Resource."""
        token = self._lock_token(request_call)
        for held in self.state["live"].values():
            self.locks.pairs.setdefault(
                (held, token), (request_call, self.func_id)
            )
        self.acq_seq += 1
        self.state["live"][self.acq_seq] = token
        return self.acq_seq

    def _lock_token(self, request_call):
        """Cross-body comparable token for the requested Resource."""
        chain = _chain(request_call.func.value)
        if chain is None:
            return f"<expr:{request_call.lineno}>"
        root, path = chain
        if root == "self":
            return ".".join(path) if path else "self"
        return ".".join((root,) + path)

    # -- one simple statement --------------------------------------------

    def transfer(self, stmt):
        reads, writes, yields = _collect_events(stmt)
        # Explicit request()/release() handle protocol.
        release_handles = released_names([stmt])
        read_locs = set()
        for chain, node in reads:
            loc = self.scope.classify(*chain)
            if loc is not None:
                read_locs.add(loc)
        write_locs = set()
        for chain, node, _op in writes:
            loc = self.scope.classify(*chain)
            if loc is not None:
                write_locs.add(loc)

        self._check_stale_locals(stmt, reads, read_locs, write_locs)
        live_ids = frozenset(self.state["live"])
        for loc in read_locs:
            if loc in self.written_locs:
                self.state["reads"][loc] = _new_record(stmt, live_ids)

        has_yield = bool(yields)
        if has_yield:
            self._apply_yield(yields[0])

        request_target = self._apply_request(stmt)
        for handle in release_handles:
            acq = self.state["handles"].pop(handle, None)
            if acq is not None:
                self.state["live"].pop(acq, None)

        live_ids = frozenset(self.state["live"])
        for chain, node, op in writes:
            loc = self.scope.classify(*chain)
            if loc is not None:
                self._apply_shared_write(loc, node, op, live_ids)
            elif isinstance(node, ast.Name) or (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Name)
            ):
                name = node.id if isinstance(node, ast.Name) else (
                    node.target.id
                )
                if name != request_target:
                    self.state["locals"].pop(name, None)
        if not has_yield:
            self._track_locals(stmt, read_locs, request_target)

    def _apply_request(self, stmt):
        """``handle = res.request()`` acquires; returns the handle name."""
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and is_request_call(stmt.value)
        ):
            return None
        name = stmt.targets[0].id
        self.state["handles"][name] = self._acquire(stmt.value)
        self.state["locals"].pop(name, None)
        return name

    def _apply_yield(self, node):
        if self.state["live"]:
            self.locks.inventory.append(
                {
                    "line": node.lineno,
                    # func_id carries a ":line" disambiguator; the
                    # inventory is for humans, so report the qualname.
                    "function": self.func_id.rsplit(":", 1)[0],
                    "locks": sorted(set(self.state["live"].values())),
                }
            )
        unprotected = not self.guards
        for table in ("reads", "writes", "locals"):
            for record in self.state[table].values():
                record["crossed"] = True
                record["unprot"] = record["unprot"] or unprotected
        for members in self.state["groups"].values():
            for record in members.values():
                record["crossed"] = True
                record["unprot"] = record["unprot"] or unprotected

    def _check_stale_locals(self, stmt, reads, read_locs, write_locs):
        for chain, node in reads:
            root, path = chain
            if path or root not in self.state["locals"]:
                continue
            record = self.state["locals"][root]
            if not record["crossed"]:
                continue
            if record["acqs"] & frozenset(self.state["live"]):
                continue  # a Resource was held across the whole window
            sources = record["sources"]
            if sources & read_locs:
                # Windowed delta: the statement re-reads the shared
                # value fresh, so the code acknowledges the cached one
                # is a snapshot; that clears the obligation for later
                # uses too (the snapshot is now deliberate history).
                self.state["locals"].pop(root, None)
                continue
            if sources & write_locs:
                # Write-back: the shared value now equals the local
                # (and atomicity-violation owns the racy-update case).
                self.state["locals"].pop(root, None)
                continue
            source = sorted(sources, key=lambda loc: loc.render())[0]
            if not self.model.has_interfering_writer(self.func_id, source):
                continue
            self._flag(
                "stale-read-across-yield",
                node,
                root,
                f"`{root}` caches `{source.render()}` from before a "
                "yield; writers may have run while this process was "
                "suspended, so the cached value can be stale here",
            )
            self.state["locals"].pop(root, None)

    def _track_locals(self, stmt, read_locs, request_target):
        parts = assignment(stmt)
        if parts is None:
            return
        sources = {
            loc
            for loc in read_locs
            if self.model.has_interfering_writer(self.func_id, loc)
        }
        if not sources:
            return
        for target in parts[0]:
            if isinstance(target, ast.Name) and target.id != request_target:
                record = _new_record(stmt, self.state["live"])
                record["sources"] = sources
                self.state["locals"][target.id] = record

    def _apply_shared_write(self, loc, node, op, live_ids):
        read_rec = self.state["reads"].get(loc)
        if (
            read_rec is not None
            and read_rec["crossed"]
            and not (read_rec["acqs"] & live_ids)
            and self.model.has_interfering_writer(self.func_id, loc)
        ):
            self._flag(
                "atomicity-violation",
                node,
                loc,
                f"`{loc.render()}` was read at line "
                f"{read_rec['node'].lineno}, the process yielded, and "
                "is written here with no Resource held across the "
                "window; another writer can interleave at the yield",
            )
        if (
            not live_ids
            and self.model.locked_elsewhere(self.func_id, loc)
        ):
            self._flag(
                "unguarded-shared-write",
                node,
                loc,
                f"`{loc.render()}` is written without a Resource here "
                "but every other accessor holds one; this write races "
                "the locked regions",
            )
        prev = self.state["writes"].get(loc)
        if (
            prev is not None
            and prev["unprot"]
            and {prev["op"], op} == {"add", "sub"}
            and self.model.has_interferer(self.func_id, loc)
        ):
            self._flag(
                "interrupt-unsafe-update",
                node,
                loc,
                f"`{loc.render()}` is adjusted at line "
                f"{prev['node'].lineno} and balanced here across an "
                "unprotected yield; an Interrupted delivered between "
                "them leaves the counter permanently skewed",
            )
        if len(loc.path) >= 2:
            group = (loc.kind, loc.owner, loc.path[:-1])
            members = self.state["groups"].setdefault(group, {})
            for other_loc, other_rec in members.items():
                if other_loc == loc or not other_rec["unprot"]:
                    continue
                if not (
                    self.model.has_interferer(self.func_id, loc)
                    or self.model.has_interferer(self.func_id, other_loc)
                ):
                    continue
                owner = loc.render().rsplit(".", 1)[0]
                self._flag(
                    "interrupt-unsafe-update",
                    node,
                    group,
                    f"`{owner}` is updated field-by-field across an "
                    f"unprotected yield (`{other_loc.leaf}` at line "
                    f"{other_rec['node'].lineno}, `{loc.leaf}` here); "
                    "an Interrupted at the interior yield leaves it "
                    "half-updated",
                )
                break
            members[loc] = _new_record(node, live_ids, op)
        self.state["writes"][loc] = _new_record(node, live_ids, op)
        self.state["reads"].pop(loc, None)


def _collect_events(stmt):
    """``(reads, writes, yields)`` of one simple statement.

    Reads and writes are maximal attribute chains (chains in Store/Del
    context, AugAssign targets, and mutator calls count as writes;
    AugAssign targets also read). Yields cover Yield and YieldFrom.
    """
    reads = []
    writes = []
    yields = []

    def visit(node):
        if node is None:
            return
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
             ast.Lambda),
        ):
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            yields.append(node)
            visit(node.value)
            return
        if isinstance(node, ast.AugAssign):
            chain = _chain(node.target)
            if chain is not None:
                reads.append((chain, node.target))
                writes.append((chain, node, _aug_op(node.op)))
            else:
                visit(node.target)
            visit(node.value)
            return
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Name)):
            chain = _chain(node)
            if chain is not None:
                ctx = getattr(node, "ctx", None)
                if isinstance(ctx, (ast.Store, ast.Del)):
                    op = "mut" if isinstance(node, ast.Subscript) else "set"
                    writes.append((chain, node, op))
                else:
                    reads.append((chain, node))
                for slice_expr in _chain_subscript_slices(node):
                    visit(slice_expr)
                return
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
                chain = _chain(func.value)
                if chain is not None:
                    writes.append((chain, node, "mut"))
                else:
                    visit(func.value)
            else:
                visit(func)
            for arg in node.args:
                visit(arg)
            for keyword in node.keywords:
                visit(keyword.value)
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(stmt)
    return reads, writes, yields


def _aug_op(op):
    if isinstance(op, ast.Add):
        return "add"
    if isinstance(op, ast.Sub):
        return "sub"
    return "aug"


def _flag_lock_inversions(sink, locks):
    for (first, second), (node, func_id) in sorted(
        locks.pairs.items(),
        key=lambda item: (item[1][0].lineno, item[1][0].col_offset),
    ):
        if first == second:
            continue
        other = locks.pairs.get((second, first))
        if other is None:
            continue
        other_node, other_func = other
        sink.flag(
            "lock-order-inversion",
            node,
            f"`{second}` is requested while `{first}` is held, but "
            f"{other_func} (line {other_node.lineno}) requests "
            f"`{first}` while holding `{second}`; the two orders "
            "deadlock when the holders interleave at a yield",
        )


def _analyze(tree, sink):
    """Both phases over one module; returns its lock inventory rows."""
    model = _ModuleModel(tree)
    locks = _LockFacts()
    for func, func_id, scope in model.process_bodies:
        _BodyPass(sink, func, func_id, scope, model, locks).walk(func.body)
    _flag_lock_inversions(sink, locks)
    return locks.inventory


def racecheck_source(source, path, resolved_path=None):
    """Racecheck one module's source text; returns ``(findings, errors)``."""
    findings, errors, _ = check_module(source, path, RULES_BY_ID, _analyze)
    return findings, errors


def racecheck_paths(paths):
    """Racecheck every ``*.py`` file under ``paths``."""
    return check_paths(paths, racecheck_source)


def lock_inventory(paths):
    """The yield-while-holding inventory for every file under ``paths``.

    Returns ``(records, errors)``; one record per yield executed while
    at least one Resource grant is live, sorted by location — the raw
    material behind ``lock-order-inversion`` and the honest answer to
    "what is ever held across a suspension?".
    """
    records = []
    errors = []
    for file_path, source in read_sources(paths, errors):
        display = display_path(file_path)
        _findings, file_errors, inventory = check_module(
            source, display, RULES_BY_ID, _analyze
        )
        errors.extend(file_errors)
        records.extend({"path": display, **row} for row in inventory or ())
    records.sort(key=lambda row: (row["path"], row["line"]))
    return records, errors


def render_lock_record(record):
    """One ``--list-locks`` text line for a :func:`lock_inventory` record."""
    return (
        f"{record['path']}:{record['line']}: {record['function']} "
        f"yields holding [{', '.join(record['locks'])}]"
    )


def render_findings(findings, show_hints=True):
    """Human-readable report lines for racecheck findings."""
    return _render_findings(findings, RULES_BY_ID, show_hints=show_hints)
