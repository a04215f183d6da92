"""Positive fixture: hash-ordered set iteration feeds downstream state."""


def drain(pending, sink):
    for item in {"cpu", "gpu", "cdsp"}:
        sink.append(item)
    return list(set(pending))


def by_length(names):
    # key= keeps ties in iteration order, so hash order survives.
    return sorted((name for name in set(names)), key=len)
