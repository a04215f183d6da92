"""Machine-readable checker baselines: acknowledged findings, nothing more.

A baseline lets a checker land as a blocking check while a hazard
backlog still exists, without pragma-spraying the tree. Every committed
baseline (one per checker, named in :mod:`repro.analysis.registry`) is
**empty** — every pre-existing hazard was fixed, not suppressed — and
the CI ``--check`` mode keeps it honest: stale entries (findings that no
longer exist) and unknown rule ids are hard errors, so a baseline can
only shrink.
"""

import json
import pathlib
from dataclasses import dataclass

from repro.analysis.common import LintError

_VERSION = 1


@dataclass(frozen=True)
class BaselineEntry:
    """One acknowledged finding: (rule, path, line)."""

    rule: str
    path: str
    line: int

    def key(self):
        return (self.path, self.line, self.rule)


def load_baseline(path, known_rules):
    """Parse a baseline file; returns ``(entries, errors)``.

    ``known_rules`` is the rule-id set of the checker the baseline
    belongs to. Unknown rule ids are :class:`LintError`\\ s, not skipped
    entries: a suppression that names a rule the checker no longer has
    (or never had) must fail the run instead of rotting silently.
    """
    path = pathlib.Path(path)
    errors = []
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return [], [LintError(str(path), 0, "baseline file not found")]
    except (json.JSONDecodeError, OSError) as exc:
        return [], [LintError(str(path), 0, f"unreadable baseline: {exc}")]
    if not isinstance(payload, dict) or payload.get("version") != _VERSION:
        return [], [
            LintError(
                str(path),
                0,
                f"baseline must be a dict with version={_VERSION}",
            )
        ]
    entries = []
    for index, raw in enumerate(payload.get("entries", [])):
        try:
            entry = BaselineEntry(
                rule=raw["rule"], path=raw["path"], line=int(raw["line"])
            )
        except (TypeError, KeyError, ValueError):
            errors.append(
                LintError(
                    str(path), 0, f"malformed baseline entry #{index}: {raw!r}"
                )
            )
            continue
        if entry.rule not in known_rules:
            errors.append(
                LintError(
                    str(path),
                    0,
                    f"baseline entry #{index} names unknown rule "
                    f"{entry.rule!r} (known: "
                    f"{', '.join(sorted(known_rules))})",
                )
            )
            continue
        entries.append(entry)
    return entries, errors


def write_baseline(path, findings):
    """Write ``findings`` as a baseline file; returns the entry count."""
    entries = sorted({finding.key() for finding in findings})
    payload = {
        "version": _VERSION,
        "entries": [
            {"rule": rule, "path": file_path, "line": line}
            for file_path, line, rule in entries
        ],
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return len(entries)


def apply_baseline(findings, entries):
    """Split findings into (new, stale_entries) against the baseline."""
    acknowledged = {entry.key() for entry in entries}
    new = [f for f in findings if f.key() not in acknowledged]
    present = {finding.key() for finding in findings}
    stale = [entry for entry in entries if entry.key() not in present]
    return new, stale


def prune_baseline(path, findings, known_rules):
    """Drop entries no current finding matches; the baseline only shrinks.

    Returns ``(kept, pruned, errors)``. The file is rewritten only when
    something was actually pruned, and never on a load error — a
    baseline that cannot be trusted must not be "repaired" by a tool
    that cannot read it.
    """
    entries, errors = load_baseline(path, known_rules)
    if errors:
        return entries, [], errors
    _new, stale = apply_baseline(findings, entries)
    stale_keys = {entry.key() for entry in stale}
    kept = [entry for entry in entries if entry.key() not in stale_keys]
    if stale:
        write_baseline(path, kept)
    return kept, stale, []
