"""The benchmark's tracer (perfbench/spans.py) looks library functions up
by name, and its reference builder (perfbench/make_reference.py) calls the
census API, so a rename or a changed signature breaks a traced benchmark
run or the reference while every untraced run still passes; these tests
make such a change fail here too.  They read files only."""

import csv
import importlib
import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_are_library_callables():
    for mod, fns in load_script("spans").TRACED.items():
        owner = importlib.import_module(f"ctrlgraph.{mod}")
        for fn in fns:
            assert callable(getattr(owner, fn, None)), f"ctrlgraph.{mod}.{fn}"


def test_cached_names_have_cache_info():
    for mod, fn in load_script("spans").CACHED:
        owner = importlib.import_module(f"ctrlgraph.{mod}")
        assert hasattr(getattr(owner, fn, None), "cache_info"), f"ctrlgraph.{mod}.{fn}"


def test_reference_builder_reproduces_reference_rows():
    make_reference = load_script("make_reference")
    with open(make_reference.OUT, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == make_reference.COLUMNS
    for want in rows[1:6]:
        got = make_reference.reference_row((int(want[0]), want[1]))
        assert [str(x) for x in got] == want


def test_reference_builder_counts_match_the_paper():
    make_reference = load_script("make_reference")
    assert make_reference.controllable_count(6) == make_reference.PAPER_COUNTS[6] == (8, 156)
