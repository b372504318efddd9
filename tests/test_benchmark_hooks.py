"""The benchmark's tracer patches library names from outside.

`perfbench/tracing.py` replaces the module attributes listed in its
`SPANS` table and the `GraphWindow` methods in `DISTANCE_METHODS` with
timing wrappers.  A library refactor that drops or renames one of them
breaks traced benchmark runs; this test catches that without running
the benchmark.  The tracing module is only imported, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

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
