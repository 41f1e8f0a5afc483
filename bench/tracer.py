"""Outside-in span tracer for the eqfactor package.

Wraps every public function of each module, plus a few methods that carry
per-edge work, by patching the attribute on every module that holds it
(``pipelines.decompose_directed`` as well as ``coloring.decompose_directed``).
Nothing inside the package changes; ``uninstall`` restores every attribute.
Spans live in memory until the caller writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "graphio", "pipelines", "connectivity", "orientation",
          "maxflow", "coloring", "parity", "lab", "multigraph")

# (module, class, method) wrapped in addition to public module functions
METHODS = (
    ("maxflow", "FlowNetwork", "max_flow"),
    ("multigraph", "Multigraph", "__init__"),
    ("multigraph", "Factorization", "factor_degrees"),
    ("multigraph", "Factorization", "all_factor_degrees"),
)


def _attrs(name, args, result):
    """Counts recorded on a span, measured from its arguments and result."""
    if name == "maxflow.FlowNetwork.max_flow":
        return {"arcs": len(args[0].to) // 2, "flow": result}
    if name == "coloring.split_to_bipartite":
        return {"b_edges": result.b.m}
    if name == "graphio.dump_report":
        return {"bytes": len(result.encode())}
    return None


class Tracer:
    """Records spans [name, start, end, parent, request, error, attrs] in memory."""

    def __init__(self):
        self.spans = []
        self._request = None
        self._first = 0  # index of the current request's first span
        self._stack = []  # indices of open spans
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self._request, None, None])
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                span = spans[index]
                span[2], span[5] = clock(), error
                stack.pop()
                if error is None:
                    span[6] = _attrs(name, args, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"eqfactor.{layer}") for layer in LAYERS}
        holders = [importlib.import_module("eqfactor"), *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, hattr, wrapped)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin_request(self, request):
        self._request = request
        self._first = len(self.spans)

    def end_request(self):
        """Close spans a stopped request left open (a timeout can land between
        a span's creation and its try block), so every span has an end."""
        now = time.perf_counter()
        for span in self.spans[self._first:]:
            if span[2] is None:
                span[2], span[5] = now, "Abandoned"
        self._stack.clear()


# metric -> span names whose outermost occurrences are summed (inclusive time)
INCLUSIVE = {
    "parity.matching_s": {"parity.find_parity_factor"},
    "parity.even_s": {"parity.even_factor_eps"},
    "coloring.split_s": {"coloring.split_to_bipartite"},
    "coloring.konig_s": {"coloring.konig_edge_coloring"},
    "coloring.balance_s": {"coloring.balance_color_sizes"},
    "graphio.parse_s": {"graphio.parse_graph"},
    "graphio.dump_s": {"graphio.dump_report"},
    "lab.verify_s": {"lab.verify"},
    "multigraph.build_s": {"multigraph.Multigraph.__init__"},
    "multigraph.factor_degrees_s": {"multigraph.Factorization.factor_degrees",
                                    "multigraph.Factorization.all_factor_degrees"},
    "pipelines.report_s": {"pipelines.build_report"},
}


def summarize(spans) -> dict:
    """Per-layer self time and call counts, plus the named inclusive times and counts.

    A span's self time is its duration minus the durations of its direct
    children; children nest inside their parent, so this is the part of the
    interval no child covers.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for metric in INCLUSIVE:
        out[metric] = 0.0
    counts = defaultdict(int)
    for i, (name, start, end, parent, _request, error, attrs) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += end - start - child[i]
        out[f"{layer}.calls"] += 1
        for metric, names in INCLUSIVE.items():
            if name in names and not _has_ancestor(spans, parent, names):
                out[metric] += end - start
        if name == "orientation.realize_out_degrees":
            counts["leaf_flows"] += 1
            counts["leaf_ok"] += error is None
        elif name == "multigraph.Multigraph.__init__":
            counts["builds"] += 1
        if attrs:
            for key, value in attrs.items():
                counts[key] += value
        if name == "maxflow.FlowNetwork.max_flow":
            counts["max_flow_calls"] += 1
    out["orientation.leaf_flows"] = counts["leaf_flows"]
    out["orientation.leaf_ok_ratio"] = counts["leaf_ok"] / counts["leaf_flows"] if counts["leaf_flows"] else 0.0
    out["maxflow.arcs"] = counts["arcs"] / counts["max_flow_calls"] if counts["max_flow_calls"] else 0.0
    out["maxflow.flow_units"] = counts["flow"]
    out["coloring.b_edges"] = counts["b_edges"]
    out["graphio.bytes_out"] = counts["bytes"]
    out["multigraph.builds"] = counts["builds"]
    return out


def _has_ancestor(spans, parent, names) -> bool:
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False
