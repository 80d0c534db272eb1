"""Outside-in layer trace: spans and counters around the library's entry
points, installed from the benchmark without changing the library.

Each target function is replaced by a wrapper in every `oddwheel` module
that holds a reference to it (`cli.spectral_radius`, `verify.walk_profile`,
...); methods are replaced on their class.  Modules that call through the
module object (`kernels.canon_code` from `enumerate` and `detect`) see the
wrapper through the rebinding of that one name.  `uninstall` puts every
original back.

A timed wrapper opens a span: an id, its parent span's id, its layer, its
start and end.  A layer's self time is its spans' durations minus the
time covered by their child spans.  Spans are kept in flat arrays while
the pass runs and written out as JSON lines when it ends.  A counting
wrapper opens no span and only adds to counters, for helpers whose time
belongs to their caller's layer (`_power_iteration`, `CharPoly.evaluate`,
the `_deletion_code` cache lookup).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# (layer, module, attribute): timed entry points, one layer each.
TIMED = (
    ("kernels.canon_code", "oddwheel.kernels", "canon_code"),
    ("kernels.has_cycle", "oddwheel.kernels", "has_cycle_of_length"),
    ("kernels.longest_path", "oddwheel.kernels", "longest_path_order"),
    ("enumerate.children", "oddwheel.enumerate", "_children"),
    ("enumerate.graph_code", "oddwheel.enumerate", "graph_code"),
    ("graphs.subgraph", "oddwheel.graphs", "Graph.subgraph"),
    ("graphs.components", "oddwheel.graphs", "components"),
    ("detect.odd_wheel", "oddwheel.detect", "contains_odd_wheel"),
    ("detect.twin_reduce", "oddwheel.detect", "_twin_reduce"),
    ("walks.walk_profile", "oddwheel.walks", "walk_profile"),
    ("walks.vertex_walks", "oddwheel.walks", "vertex_walks"),
    ("walks.ex_infinity", "oddwheel.walks", "ex_infinity_trace"),
    ("spectral.spectral_radius", "oddwheel.spectral", "spectral_radius"),
    ("spectral.quotient", "oddwheel.spectral", "quotient"),
    ("spectral.matrix_radius", "oddwheel.spectral", "matrix_radius"),
    ("spectral.char_poly", "oddwheel.spectral", "char_poly"),
    ("spectral.bisect", "oddwheel.spectral", "bracket_largest_root"),
    ("families.enumerate_family", "oddwheel.families", "enumerate_family"),
    ("families.construct", "oddwheel.families", "standard_member"),
    ("families.construct", "oddwheel.families", "spex_candidate"),
    ("families.construct", "oddwheel.families", "bipartite_candidate"),
    ("formats.decode", "oddwheel.formats", "read_graph_text"),
    ("formats.decode", "oddwheel.formats", "decode_graph6"),
    ("formats.decode", "oddwheel.formats", "decode_edge_list"),
    ("formats.encode", "oddwheel.formats", "encode_graph6"),
    ("formats.encode", "oddwheel.formats", "encode_edge_list"),
    ("verify", "oddwheel.verify", "run_claim"),
)

CLI = "cli"


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_index: dict[str, int] = {}
        # One entry per span, at index span id - 1.
        self.span_parent = array("q")
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open spans: [id, layer index, time covered by children].
        self._stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.calls_under: Counter = Counter()  # (parent layer, layer) -> calls
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _index(self, layer: str) -> int:
        idx = self._layer_index.get(layer)
        if idx is None:
            idx = self._layer_index[layer] = len(self.layers)
            self.layers.append(layer)
        return idx

    def _open(self, idx: int) -> list:
        parent = self._stack[-1] if self._stack else None
        self.span_parent.append(parent[0] if parent else 0)
        self.span_layer.append(idx)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.calls_under[(self.layers[parent[1]] if parent else None,
                          self.layers[idx])] += 1
        frame = [len(self.span_parent), idx, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        layer = self.layers[frame[1]]
        self.calls[layer] += 1
        self.self_s[layer] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        self.span_start[frame[0] - 1] = t0
        self.span_end[frame[0] - 1] = t1

    def timed(self, layer: str, fn, after=None):
        idx = self._index(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, t0, clock())
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def run(self, layer: str, fn, *args):
        """Call fn(*args) inside a span of `layer` and return its result."""
        frame = self._open(self._index(layer))
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(frame, t0, time.perf_counter())

    # -- installation --------------------------------------------------
    def _rebind(self, module_name: str, attr: str, make) -> None:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "oddwheel" or name.startswith("oddwheel.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        import oddwheel.cli  # noqa: F401  (loads every module to patch)
        from oddwheel import enumerate as enum_mod

        self._index(CLI)
        after = {
            "enumerate.children": self._after_children,
            "detect.twin_reduce": self._after_twin_reduce,
            "walks.vertex_walks": self._after_vertex_walks,
        }
        for layer, module_name, attr in TIMED:
            self._rebind(
                module_name, attr,
                lambda fn, layer=layer: self.timed(layer, fn, after.get(layer)),
            )
        self._rebind("oddwheel.enumerate", "_deletion_code",
                     lambda fn: self._count_deletion(fn, enum_mod._deletion_cache))
        self._rebind("oddwheel.spectral", "_power_iteration",
                     self._count_power_iteration)
        self._rebind("oddwheel.spectral", "CharPoly.evaluate",
                     self._count_charpoly_eval)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- counters ------------------------------------------------------
    def _after_children(self, args, kwargs, result) -> None:
        self.counts["children_kept"] += len(result)

    def _after_twin_reduce(self, args, kwargs, result) -> None:
        self.counts["twin_in"] += args[0].order
        self.counts["twin_kept"] += result.order

    def _after_vertex_walks(self, args, kwargs, result) -> None:
        g = args[0]
        levels = args[1] if len(args) > 1 else kwargs["levels"]
        self.counts["edge_visits"] += levels * 2 * g.edge_count

    def _count_deletion(self, fn, cache):
        counts = self.counts

        def wrapper(code):
            counts["deletion_calls"] += 1
            if code in cache:
                counts["deletion_hits"] += 1
            return fn(code)

        return wrapper

    def _count_power_iteration(self, fn):
        counts = self.counts

        def wrapper(a, tol, max_iter):
            result = fn(a, tol, max_iter)
            order = a.shape[0]
            counts["power_iters"] += result[3]
            counts["matvec_ops"] += result[3] * 2 * order * order
            return result

        return wrapper

    def _count_charpoly_eval(self, fn):
        counts = self.counts

        def wrapper(poly, x):
            counts["charpoly_evals"] += 1
            return fn(poly, x)

        return wrapper

    # -- output --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, by name."""
        c = self.counts
        # canon_code calls on candidate children: those made directly in
        # _children, less the deletion-cache misses made on its behalf.
        child_canon = (
            self.calls_under[("enumerate.children", "kernels.canon_code")]
            - (c["deletion_calls"] - c["deletion_hits"])
        )
        out: dict[str, float] = {}
        for layer in ("kernels.canon_code", "kernels.has_cycle",
                      "kernels.longest_path", "enumerate.children",
                      "enumerate.graph_code", "graphs.subgraph",
                      "graphs.components", "detect.odd_wheel",
                      "walks.walk_profile", "spectral.spectral_radius",
                      "spectral.char_poly"):
            out[f"{layer}.calls"] = self.calls[layer]
        for layer in self._layer_index:
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["enumerate.accept_ratio"] = _ratio(c["children_kept"], child_canon)
        out["enumerate.deletion_cache.hit_ratio"] = _ratio(
            c["deletion_hits"], c["deletion_calls"])
        out["detect.hubs_scanned"] = self.calls_under[
            ("detect.odd_wheel", "graphs.subgraph")]
        out["detect.twin_reduce.kept_ratio"] = _ratio(c["twin_kept"], c["twin_in"])
        out["walks.edge_visits"] = c["edge_visits"]
        out["spectral.power_iters"] = c["power_iters"]
        out["spectral.matvec_ops"] = c["matvec_ops"]
        out["spectral.charpoly_evals"] = c["charpoly_evals"]
        return out

    def write_spans(self, path) -> None:
        """Write every span as a JSON line."""
        with open(path, "w", encoding="ascii") as fh:
            for i in range(len(self.span_parent)):
                fh.write(
                    '{"id":%d,"parent":%d,"layer":"%s","start":%.9f,"end":%.9f}\n'
                    % (i + 1, self.span_parent[i], self.layers[self.span_layer[i]],
                       self.span_start[i], self.span_end[i])
                )


def _ratio(num: int, den: int) -> float:
    """num / den, with 0 for an empty base (the layer did no work)."""
    return num / den if den else 0.0
