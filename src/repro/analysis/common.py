"""Machinery shared by the AST checkers (lint, semcheck, archcheck, racecheck).

Every checker speaks the same dialect: findings located at
``path:line:col`` with a stable rule id and a fix-it hint, suppression
through ``# repro: allow[rule-id]`` pragmas, an acknowledged-findings
baseline, and the 0/1/2 exit-code contract (clean / findings / the run
itself cannot be trusted). This module holds the dialect, plus the
per-module driver (:func:`check_module`) that parses, filters and sorts
for the per-file checkers, so :mod:`repro.analysis.lint`,
:mod:`repro.analysis.semcheck`, :mod:`repro.analysis.archcheck`, and
:mod:`repro.analysis.racecheck` only contain rules. The checkers
themselves are listed once, in :mod:`repro.analysis.registry`.

Pragmas are validated against the union of every checker's rule ids
(:func:`known_rule_ids`): a pragma naming a rule another checker owns
is silently inapplicable here, but a pragma naming a rule nobody owns
is a hard error — typos must fail the run, not rot.
"""

import ast
import fnmatch
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass


@dataclass(frozen=True)
class RuleInfo:
    """One check rule: stable id, what it catches, and how to fix it."""

    id: str
    summary: str
    hint: str


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def key(self):
        """Identity used for baseline matching and de-duplication."""
        return (self.path, self.line, self.rule)

    def render(self):
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class LintError:
    """A configuration problem (bad pragma, stale/unknown baseline).

    Errors are not findings: they mean the check run itself cannot be
    trusted, so the CLI exits 2 instead of 1.
    """

    path: str
    line: int
    message: str

    def render(self):
        return f"{self.path}:{self.line}: error: {self.message}"


_PRAGMA = re.compile(r"#\s*repro:\s*(allow|allow-file)\[([^\]]*)\]")

#: Dotted call targets that read host clocks (lint's ``wall-clock``;
#: archcheck counts them among its blocking calls).
HOST_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "push",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)


def known_rule_ids():
    """Every rule id any checker owns (for pragma/typo validation)."""
    return frozenset(rule_owners())


def rule_owners():
    """Rule id -> owning checker name, across every checker.

    Rule ids are globally unique (a test pins this), so one flat map
    is enough to annotate a pragma with the tool it speaks to.
    """
    from repro.analysis.registry import CHECKERS

    return {rule: spec.name for spec in CHECKERS for rule in spec.rules}


def _pragma_comments(source):
    """``(line, kind, rules)`` of every pragma in a real comment token.

    A pragma example quoted in a docstring or help string is not a
    comment and must not suppress anything.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        tokens = []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        for match in _PRAGMA.finditer(token.string):
            kind, raw = match.group(1), match.group(2)
            rules = [part.strip() for part in raw.split(",") if part.strip()]
            yield token.start[0], kind, rules


def parse_pragmas(source, path, applicable=None, known=None):
    """Extract suppression pragmas from ``source``.

    Returns ``(line_allows, file_allows, errors)`` where ``line_allows``
    maps a line number to the rule ids allowed on that line, filtered to
    ``applicable`` (the running checker's rules). Rule ids outside
    ``known`` (default: every checker's rules) are
    :class:`LintError`\\ s — a typo'd pragma must fail the run, not
    silently suppress nothing (or worse, keep "working" after the rule
    it named is renamed). Rule ids known to another checker are valid
    but inert here.
    """
    known = known if known is not None else known_rule_ids()
    line_allows = {}
    file_allows = set()
    errors = []
    for lineno, kind, names in _pragma_comments(source):
        rules = set(names)
        if not rules:
            errors.append(
                LintError(path, lineno, "empty repro pragma rule list")
            )
            continue
        unknown = sorted(rules - set(known))
        if unknown:
            errors.append(
                LintError(
                    path,
                    lineno,
                    f"unknown rule id(s) in pragma: {', '.join(unknown)} "
                    f"(known: {', '.join(sorted(known))})",
                )
            )
            rules &= set(known)
        if applicable is not None:
            rules &= set(applicable)
        if kind == "allow":
            line_allows.setdefault(lineno, set()).update(rules)
        else:
            file_allows.update(rules)
    return line_allows, file_allows, errors


def apply_pragmas(findings, line_allows, file_allows):
    """The findings no line or file pragma allows."""
    return [
        finding
        for finding in findings
        if finding.rule not in file_allows
        and finding.rule not in line_allows.get(finding.line, ())
    ]


class AliasResolver:
    """Resolve call targets to dotted paths through import aliases."""

    def __init__(self, tree, tracked_roots):
        self._tracked = tuple(tracked_roots)
        self._aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._tracked:
                        self._aliases[alias.asname or root] = (
                            alias.name if alias.asname else root
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] in self._tracked:
                    for alias in node.names:
                        self._aliases[alias.asname or alias.name] = (
                            f"{module}.{alias.name}"
                        )

    def dotted(self, node):
        """Dotted path of a ``Name``/``Attribute`` chain, or ``None``."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self._aliases.get(node.id, node.id))
        return ".".join(reversed(parts))


def assignment(node):
    """``(targets, value)`` of an assignment that stores a value, else ``None``."""
    if isinstance(node, ast.Assign):
        return node.targets, node.value
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        return [node.target], node.value
    return None


def inside_sorted(node, parents):
    """Whether a ``sorted(...)`` call encloses ``node``.

    ``parents`` maps each node to its parent node.
    """
    current = parents.get(node)
    while current is not None:
        if (
            isinstance(current, ast.Call)
            and isinstance(current.func, ast.Name)
            and current.func.id == "sorted"
        ):
            return True
        current = parents.get(current)
    return False


def unsorted_items_call(node, parents):
    """``<mapping>.items()`` with no ``sorted(...)`` enclosing it.

    The insertion-order hazard behind lint's ``unsorted-items`` and
    archcheck's ``nondet-escape``.
    """
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "items"
        and not node.args
        and not node.keywords
        and not inside_sorted(node, parents)
    )


def matches_any(path, patterns):
    """fnmatch ``path`` against any of ``patterns``."""
    return any(fnmatch.fnmatch(path, pattern) for pattern in patterns)


def display_path(path):
    """Repo-relative posix path when possible, absolute otherwise."""
    resolved = pathlib.Path(path).resolve()
    try:
        return resolved.relative_to(pathlib.Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def iter_python_files(paths):
    """Expand files/directories into a sorted list of ``*.py`` files."""
    files = set()
    for path in paths:
        path = pathlib.Path(path)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        else:
            files.add(path)
    return sorted(files)


def read_sources(paths, errors):
    """Yield ``(file_path, source)`` for every ``*.py`` file under ``paths``.

    The one file-reading loop behind every checker: an unreadable file
    becomes a :class:`LintError` appended to ``errors``.
    """
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text()
        except OSError as exc:
            errors.append(LintError(str(file_path), 0, f"unreadable: {exc}"))
            continue
        yield file_path, source


def check_paths(paths, check_source):
    """Run ``check_source(source, display, resolved_path=...)`` per file.

    The directory walk behind ``lint_paths``, ``semcheck_paths`` and
    ``racecheck_paths``; returns combined ``(findings, errors)``.
    """
    findings = []
    errors = []
    for file_path, source in read_sources(paths, errors):
        file_findings, file_errors = check_source(
            source,
            display_path(file_path),
            resolved_path=file_path.resolve().as_posix(),
        )
        findings.extend(file_findings)
        errors.extend(file_errors)
    return findings, errors


class FindingSink:
    """Flag-and-dedupe sink for one module: the first finding at each
    ``(path, line, rule)`` wins."""

    def __init__(self, path):
        self.path = path
        self.findings = {}

    def flag(self, rule, node, message):
        finding = Finding(
            rule, self.path, node.lineno, node.col_offset, message
        )
        self.findings.setdefault(finding.key(), finding)


def check_module(source, path, rules, analyze):
    """The per-module driver behind lint, semcheck and racecheck.

    Parses ``source`` (a syntax error is a :class:`LintError`, not a
    crash), reads its pragmas, and runs ``analyze(tree, sink)`` with a
    :class:`FindingSink`. Returns ``(findings, errors, result)``: the
    sink's findings that no pragma for one of ``rules`` allows, sorted
    by key, and whatever ``analyze`` returned (``None`` when the source
    does not parse).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [], [
            LintError(path, exc.lineno or 0, f"syntax error: {exc.msg}")
        ], None
    line_allows, file_allows, errors = parse_pragmas(
        source, path, applicable=set(rules)
    )
    sink = FindingSink(path)
    result = analyze(tree, sink)
    findings = [sink.findings[key] for key in sorted(sink.findings)]
    return apply_pragmas(findings, line_allows, file_allows), errors, result


def render_findings(findings, rules_by_id, show_hints=True):
    """Human-readable report lines for a list of findings."""
    lines = []
    for finding in findings:
        lines.append(finding.render())
        if show_hints:
            rule = rules_by_id.get(finding.rule)
            if rule is not None:
                lines.append(f"    fix: {rule.hint}")
    return lines


def findings_to_json(findings):
    """The shared ``--format=json`` payload for every checker."""
    return [
        {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "message": finding.message,
        }
        for finding in findings
    ]


def inventory_pragmas(paths, known=None):
    """Audit every ``# repro: allow[...]`` suppression under ``paths``.

    Returns ``(records, errors)``: one record per pragma, sorted by
    location, with the rule ids it names — the ``--list-pragmas`` view
    that keeps the suppression debt visible. Unknown rule ids are
    errors, exactly as they are during a check run.
    """
    known = known if known is not None else known_rule_ids()
    records = []
    errors = []
    for file_path, source in read_sources(paths, errors):
        display = display_path(file_path)
        for lineno, kind, rules in _pragma_comments(source):
            unknown = sorted(set(rules) - set(known))
            if unknown:
                errors.append(LintError(
                    display, lineno,
                    f"unknown rule id(s) in pragma: {', '.join(unknown)}",
                ))
            records.append({
                "path": display,
                "line": lineno,
                "kind": kind,
                "rules": sorted(rules),
            })
    records.sort(key=lambda record: (record["path"], record["line"]))
    return records, errors
