import functools
import itertools
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from ctrlgraph.graphs import parse_graph6

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


@functools.lru_cache(maxsize=None)
def census_lines(n: int) -> tuple[str, ...]:
    return tuple((DATA_DIR / f"graphs{n}.g6").read_text().splitlines())


@functools.lru_cache(maxsize=None)
def census_graphs(n: int) -> tuple:
    return tuple(parse_graph6(line) for line in census_lines(n))


def all_graphs_upto(n: int):
    for k in range(1, n + 1):
        yield from census_graphs(k)


def all_subsets(v: int):
    for r in range(v + 1):
        yield from itertools.combinations(range(v), r)


def count_calls(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends each call's arguments
    to `calls`."""
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR
