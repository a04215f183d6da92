"""Negative fixture: sets are sorted before iteration."""


def drain(pending, sink):
    for item in sorted({"cpu", "gpu", "cdsp"}):
        sink.append(item)
    return sorted(set(pending))


def doubled(first, second, pending):
    # The comprehension's output is sorted whole, without key=.
    return sorted(v * 2 for v in {first, second}) + sorted(
        [v for v in set(pending)]
    )
