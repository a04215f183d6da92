"""Fold a cProfile run into per-layer host self time and cross-layer calls.

A layer is a subpackage of ``repro`` (``repro.android`` is ``android``);
the package's own top-level modules form the layer ``repro``. Names come
from the source tree, so a new or removed subpackage changes the layer
set without an edit here.

Code outside ``repro`` (C functions, the standard library, numpy) has
no layer of its own. Its self time is split among the layers of its
callers in proportion to the self time each caller's calls spent in it;
a caller that is itself outside ``repro`` passes its share up to its own
callers. For ``calls_in`` such a caller stands for the layer that made
most of the calls into it, ties going to the first name, so the counts
are exact functions of the call graph and repeat from run to run.
"""

import os
import types


def discover_layers(package_dir):
    """Every layer name defined by the ``repro`` tree, sorted."""
    names = {"repro"}
    for entry in os.listdir(package_dir):
        if os.path.isfile(os.path.join(package_dir, entry, "__init__.py")):
            names.add(entry)
    return sorted(names)


def layer_of(filename, package_dir):
    """The layer defining code from ``filename``; ``None`` outside repro."""
    relative = os.path.relpath(os.path.realpath(filename), package_dir)
    if relative == os.pardir or relative.startswith(os.pardir + os.sep):
        return None
    head, separator, _ = relative.partition(os.sep)
    return head if separator else "repro"


def _label(code):
    if isinstance(code, types.CodeType):
        return (code.co_filename, code.co_firstlineno, code.co_name)
    return ("~", 0, str(code))


class _Graph:
    def __init__(self, entries, package_dir):
        #: id(code) -> (label, layer or None, self seconds)
        self.nodes = {}
        #: id(callee code) -> {id(caller code): [calls, callee self seconds]}
        self.callers = {}
        for entry in entries:
            code = entry.code
            layer = None
            if isinstance(code, types.CodeType):
                layer = layer_of(code.co_filename, package_dir)
            self.nodes[id(code)] = (_label(code), layer, entry.inlinetime)
        for entry in entries:
            for sub in entry.calls or ():
                edges = self.callers.setdefault(id(sub.code), {})
                edge = edges.setdefault(id(entry.code), [0, 0.0])
                edge[0] += sub.callcount
                edge[1] += sub.inlinetime
        self._memo = {}

    def ordered_callers(self, key):
        edges = self.callers.get(key, {})
        return sorted(edges.items(), key=lambda item: self.nodes[item[0]][0])

    def weights(self, key, stack=frozenset()):
        """``(by_calls, by_time, cut)`` layer weights of one node.

        Each weight map sums to 1, or is empty for a node no layer
        reaches. ``cut`` is true when a cycle was broken below, in
        which case the result depends on the path and is not memoised.
        """
        if key in self._memo:
            return self._memo[key]
        layer = self.nodes[key][1]
        if layer is not None:
            return {layer: 1.0}, {layer: 1.0}, False
        by_calls, by_time, cut = {}, {}, False
        for caller, (calls, seconds) in self.ordered_callers(key):
            if caller in stack or caller == key:
                cut = True
                continue
            calls_w, time_w, caller_cut = self.weights(caller, stack | {key})
            cut = cut or caller_cut
            for name, share in calls_w.items():
                by_calls[name] = by_calls.get(name, 0.0) + calls * share
            for name, share in time_w.items():
                by_time[name] = by_time.get(name, 0.0) + seconds * share
        if not sum(by_time.values()):
            by_time = dict(by_calls)
        result = _normalized(by_calls), _normalized(by_time), cut
        if not cut:
            self._memo[key] = result
        return result

    def owner(self, key):
        """The one layer a call made by this node is charged to."""
        by_calls = self.weights(key)[0]
        if not by_calls:
            return None
        return min(by_calls, key=lambda name: (-by_calls[name], name))


def _normalized(weights):
    total = sum(weights.values())
    if not total:
        return {}
    return {name: weight / total for name, weight in weights.items()}


def fold(entries, package_dir):
    """Per-layer self seconds and cross-layer call counts.

    ``entries`` is ``cProfile.Profile().getstats()``. Returns
    ``{"layers": {name: {"self_s", "calls_in"}}, "outside": [...]}``,
    where ``outside`` lists repro functions in a file no layer owns.
    """
    names = discover_layers(package_dir)
    graph = _Graph(entries, package_dir)
    layers = {name: {"self_s": 0.0, "calls_in": 0} for name in names}
    outside = []
    for key in sorted(graph.nodes, key=lambda key: graph.nodes[key][0]):
        label, layer, seconds = graph.nodes[key]
        if layer is not None and layer not in layers:
            outside.append(":".join(map(str, label)))
            continue
        for name, share in graph.weights(key)[1].items():
            if name in layers:
                layers[name]["self_s"] += seconds * share
        if layer is None:
            continue
        for caller, (calls, _seconds) in graph.ordered_callers(key):
            if graph.owner(caller) != layer:
                layers[layer]["calls_in"] += calls
    return {"layers": layers, "outside": outside}
