"""Memoized per-graph cost totals for graph latency math.

Every inference invoke used to re-price its op graph from scratch:
``graph_time_us`` walked the ops, recomputed each roofline division, and
summed. The op graphs are immutable (:class:`~repro.models.ops.Op` is a
frozen dataclass, model op tuples come out of an ``lru_cache``) and the
pricing inputs — device kind, device scale, dtype, kernel impl — are
fixed for the life of a process, so a graph's total can be computed once
per *(pricing config, ops)* pair and reused by every subsequent invoke.

The cache keys on ``(config, id(ops))``: a single small-tuple hash, far
cheaper than hashing every op in the graph. Each entry holds a strong
reference to its ops tuple, so the id can never be recycled while the
entry exists.

Bit-identity contract (see ``docs/performance.md``): the cached total is
produced by the *same* left-fold ``sum()`` over per-op values computed
by the *same* per-op function the uncached code used, so replacing the
per-invoke sum with a cache read is observably free — figure outputs
and replay digests are byte-identical.
"""

__all__ = ["clear_cost_tables", "cost_table_stats", "graph_total_us"]

#: (config, id(ops)) -> (ops, total_us). The entry holds the exact
#: tuple object whose id it is keyed on — not merely an equal one — so
#: the id can never be recycled by a different object while the entry
#: exists. (Keying an unpinned alias is a real bug: CPython reuses
#: tuple addresses immediately, and a later equal-id lookup would hit
#: the wrong total.)
_tables = {}
_hits = 0
_misses = 0


def graph_total_us(config, ops, op_us, *args):
    """Total of ``op_us(op, *args)`` over ``ops``, memoized per graph.

    ``op_us`` is the caller's existing per-op cost function, so this
    module never duplicates cost math. ``config`` must be a hashable
    description of every input ``op_us`` reads besides the op itself —
    device kind, scale, dtype, impl. Omitting a pricing input from the
    config would alias distinct costs onto one entry. Non-tuple ``ops``
    (rare ad-hoc lists) are priced but not cached: lists are mutable,
    so their id is no key.
    """
    global _hits, _misses
    # id() here is deterministically *safe*: it only decides cache hit
    # vs miss, and a miss recomputes the identical value, so no output
    # ever depends on the address. Every entry pins the tuple its id
    # names, so a stored id cannot be recycled by a different object.
    key = (config, id(ops))  # repro: allow[id-as-key]
    entry = _tables.get(key)
    if entry is not None:
        _hits += 1
        return entry[1]
    _misses += 1
    # Left-fold from zero — the identical float-addition order to the
    # inline ``sum(op_time(op) for op in ops)`` this cache replaces,
    # which keeps cached totals bit-equal to uncached.
    total = sum([op_us(op, *args) for op in ops])
    if isinstance(ops, tuple):
        _tables[key] = (ops, total)
    return total


def clear_cost_tables():
    """Drop every cached total (tests and benchmark cold-start runs)."""
    global _hits, _misses
    _tables.clear()
    _hits = 0
    _misses = 0


def cost_table_stats():
    """Cache effectiveness counters for benchmarks and docs."""
    return {"tables": len(_tables), "hits": _hits, "misses": _misses}
