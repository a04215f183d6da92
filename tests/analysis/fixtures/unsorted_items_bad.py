"""Positive fixture: insertion-ordered .items() reaches an artifact.

Only flagged when linted as an export module (``lint.EXPORT_MODULES``).
"""


def export(series):
    return [(name, values) for name, values in series.items()]
