"""The benchmark's tracer patches library names from outside.

`perfbench/tracing.py` replaces the module attributes listed in its
`SPANS` table and the `GraphWindow` methods in `DISTANCE_METHODS` with
timing wrappers, and its hooks read attributes of the results.  A
library refactor that drops or renames one of them breaks traced
benchmark runs; these tests catch that without running the benchmark.
The tracing module is only imported, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

from ppmatch import experiments, graphs, processes

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_exist():
    tracing = load_tracing()
    for mod_name, attr, _metric, _hook in tracing.SPANS:
        mod = importlib.import_module(f"ppmatch.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"ppmatch.{mod_name}.{attr}"
    window_cls = importlib.import_module("ppmatch.graphs").GraphWindow
    for attr in tracing.DISTANCE_METHODS:
        # The tracer looks methods up in the class dict, not by attribute.
        assert callable(window_cls.__dict__.get(attr)), f"GraphWindow.{attr}"


def test_tracer_hooks_read_a_pipeline_run():
    tracing = load_tracing()
    names = {mod_name for mod_name, _attr, _metric, _hook in tracing.SPANS}
    tracer = tracing.Tracer(
        {name: importlib.import_module(f"ppmatch.{name}") for name in names}
    )
    window = graphs.build_window(graphs.GraphFamily.regular_tree(3), 5, 2)
    spec = processes.ProcessSpec.poisson()
    cfg = experiments.PipelineConfig(r0=2)

    def op():
        res = experiments.run_matching_pipeline(window, spec, spec, 7, cfg)
        experiments.tail_row(res, [0, 1, 2])
        return res

    tracer.install()
    try:
        res = tracer.op(op)
    finally:
        tracer.uninstall()
    per_op = tracer.per_op(1)
    assert per_op["order.collisions"] == res.order.n_collisions
    assert per_op["bipartite.points_kept"] == res.graph.n_points
    assert per_op["experiments.pipeline_self_s"] > 0
