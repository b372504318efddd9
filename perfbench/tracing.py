"""Span recorder that times ppmatch's layers from outside the library.

`Tracer.install()` replaces the module attributes of the public calls
listed in `SPANS` (and the distance queries of `GraphWindow`) with
timing wrappers; `uninstall()` puts the originals back.  Library code
calls these functions through module globals or attributes, so calls
made inside the library are recorded too, without editing it.

Every span knows how much of its interval its child spans covered, so
each metric ending in `_s` is a self time: the span's duration minus
its children.  Distance queries are too frequent for one span each:
they are counted and their time summed under `graphs.distance_s`, and
that time is subtracted from whichever span issued them.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

# Layer of each self-time metric; the shares in the traced result are
# taken per layer, and together with the op's own remainder they add up
# to the traced op time.
LAYER_OF = {
    "graphs.build_window_s": "graphs",
    "graphs.distance_s": "graphs",
    "processes.sample_s": "processes",
    "radii.radius_field_s": "radii",
    "radii.bad_set_s": "radii",
    "radii.constraint_s": "radii",
    "bipartite.match_graph_s": "bipartite",
    "order.build_s": "order",
    "matching.point_order_s": "matching",
    "matching.run_s": "matching",
    "matching.find_chains_s": "matching",
    "matching.select_minimal_s": "matching",
    "matching.shortest_chain_s": "matching",
    "matching.flip_s": "matching",
    "experiments.pipeline_self_s": "experiments",
    "experiments.tail_row_s": "experiments",
}
LAYERS = ("graphs", "processes", "radii", "bipartite", "order", "matching",
          "experiments")

COUNTS = (
    "graphs.distance_calls", "graphs.n_vertices", "processes.points",
    "radii.constraint_calls", "radii.clause1_vertices",
    "radii.clause2_vertices", "radii.censored_vertices",
    "bipartite.points_kept", "bipartite.points_dropped", "bipartite.edges",
    "order.collisions", "matching.stage1_s", "matching.stages",
    "matching.sweeps", "matching.flips", "matching.chains_found",
    "matching.chains_selected",
)

DISTANCE_METHODS = ("distance_matrix", "dist_row", "distance", "ball", "sphere")


def _on_sample(t, pm):
    t.counts["processes.points"] += pm.total


def _on_field(t, f):
    t.counts["radii.clause1_vertices"] += int((f.clause == 1).sum())
    t.counts["radii.clause2_vertices"] += int((f.clause == 2).sum())
    t.counts["radii.censored_vertices"] += f.n_censored


def _on_constraint(t, _res):
    t.counts["radii.constraint_calls"] += 1


def _on_match_graph(t, g):
    t.counts["bipartite.points_kept"] += g.n_points
    t.counts["bipartite.points_dropped"] += (
        g.censor.left_points_dropped + g.censor.right_points_dropped
    )
    t.counts["bipartite.edges"] += g.n_edges


def _on_order(t, of):
    t.counts["order.collisions"] += of.n_collisions


def _on_run(t, out):
    reports = out[1]
    # Stages after the matching is exhausted are synthesized with a
    # zero wall time; only stages that searched count.
    t.counts["matching.stages"] += sum(1 for r in reports if r.wall_s > 0)
    t.counts["matching.sweeps"] += sum(r.sweeps for r in reports)
    t.counts["matching.flips"] += sum(r.flips for r in reports)
    t.counts["matching.stage1_s"] += sum(
        r.wall_s for r in reports if r.stage == 1
    )


def _on_find_chains(t, chains):
    t.counts["matching.chains_found"] += len(chains)


def _on_select(t, chains):
    t.counts["matching.chains_selected"] += len(chains)


def _on_pipeline(t, res):
    t.counts["graphs.n_vertices"] += res.window.n


# (module name, attribute, metric, result hook)
SPANS = (
    ("graphs", "build_window", "graphs.build_window_s", None),
    ("processes", "sample", "processes.sample_s", _on_sample),
    ("radii", "compute_radius_field", "radii.radius_field_s", _on_field),
    ("radii", "compute_bad_set", "radii.bad_set_s", None),
    ("radii", "constraint_holds", "radii.constraint_s", _on_constraint),
    ("bipartite", "build_match_graph", "bipartite.match_graph_s",
     _on_match_graph),
    ("order", "build_order", "order.build_s", _on_order),
    ("matching", "point_order", "matching.point_order_s", None),
    ("matching", "run", "matching.run_s", _on_run),
    ("matching", "find_chains", "matching.find_chains_s", _on_find_chains),
    ("matching", "select_minimal", "matching.select_minimal_s", _on_select),
    ("matching", "shortest_chain_length", "matching.shortest_chain_s", None),
    ("matching", "flip", "matching.flip_s", None),
    ("experiments", "run_matching_pipeline", "experiments.pipeline_self_s",
     _on_pipeline),
    ("experiments", "tail_row", "experiments.tail_row_s", None),
)


class Tracer:
    """Per-op span totals, accumulated over every traced op of a run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # One entry per open span: the time its children covered so far.
        self._child_s: list[float] = []
        self._in_distance = False
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _close(self, metric: str, dt: float) -> None:
        child = self._child_s.pop()
        self.self_s[metric] += dt - child
        if self._child_s:
            self._child_s[-1] += dt

    def _wrap(self, fn, metric: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(metric, perf_counter() - t0)
            if hook is not None:
                hook(self, out)
            return out
        return wrapper

    def _wrap_distance(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_distance:  # ball/sphere/distance call dist_row
                return fn(*args, **kwargs)
            self._in_distance = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._in_distance = False
                self.self_s["graphs.distance_s"] += dt
                self.counts["graphs.distance_calls"] += 1
                if self._child_s:
                    self._child_s[-1] += dt
        return wrapper

    def op(self, fn):
        """Run fn as one op under a parent span and return its result.

        The op's own self time is the part of it no layer span covered.
        """
        self._child_s.append(0.0)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            dt = perf_counter() - t0
            self._close("trace.remainder_s", dt)
            self.self_s["trace.op_s"] += dt

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, metric, hook in SPANS:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, metric, hook))
        window_cls = self.modules["graphs"].GraphWindow
        for attr in DISTANCE_METHODS:
            fn = window_cls.__dict__[attr]
            self._saved.append((window_cls, attr, fn))
            setattr(window_cls, attr, self._wrap_distance(fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        self._child_s.clear()
        self._in_distance = False

    # -- results -------------------------------------------------------

    def per_op(self, n_ops: int) -> dict[str, float]:
        """Mean self time per layer span, counts per op, layer shares."""
        n = max(n_ops, 1)
        out = {m: self.self_s[m] / n for m in LAYER_OF}
        out.update({m: self.counts[m] / n for m in COUNTS})
        out["trace.op_s"] = self.self_s["trace.op_s"] / n
        out["trace.remainder_s"] = self.self_s["trace.remainder_s"] / n
        op_s = self.self_s["trace.op_s"]
        for layer in LAYERS:
            busy = sum(self.self_s[m] for m, l in LAYER_OF.items() if l == layer)
            out[f"share.{layer}"] = busy / op_s if op_s > 0 else 0.0
        sampled = self.counts["bipartite.points_kept"] + self.counts[
            "bipartite.points_dropped"]
        out["bipartite.kept_ratio"] = (
            self.counts["bipartite.points_kept"] / sampled if sampled else 0.0
        )
        found = self.counts["matching.chains_found"]
        out["matching.chain_yield"] = (
            self.counts["matching.chains_selected"] / found if found else 0.0
        )
        return out
