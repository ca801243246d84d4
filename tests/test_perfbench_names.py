"""The benchmark's tracer (perfbench/spans.py) looks library functions up
by name, so a rename breaks a traced benchmark run while every untraced
run still passes; these tests make such a rename fail here too."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_are_library_callables():
    for mod, fns in load_spans().TRACED.items():
        owner = importlib.import_module(f"ctrlgraph.{mod}")
        for fn in fns:
            assert callable(getattr(owner, fn, None)), f"ctrlgraph.{mod}.{fn}"


def test_cached_names_have_cache_info():
    for mod, fn in load_spans().CACHED:
        owner = importlib.import_module(f"ctrlgraph.{mod}")
        assert hasattr(getattr(owner, fn, None), "cache_info"), f"ctrlgraph.{mod}.{fn}"
