"""scripts/generate_graphs.py: the data files it writes and its bucket key."""

import collections
import importlib.util
import itertools
import pathlib

import pytest

from ctrlgraph.control import graph_char_poly
from ctrlgraph.graphs import empty, isomorphisms, parse_graph6

from conftest import DATA_DIR, census_graphs, census_lines

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "generate_graphs.py"

_spec = importlib.util.spec_from_file_location("generate_graphs", SCRIPT)
generate_graphs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate_graphs)

# Every pair of distinct 8-vertex graphs whose exact bucket key
# (vertex profiles, characteristic polynomial) is shared.
SHARED_KEY_N8 = [
    ("GCpdbg", "GCqreO"),
    ("GCpfbg", "GCpveO"),
    ("GCqrbc", "GCqreo"),
    ("GCZbsk", "GCpdrw"),
    ("GCpvbg", "GCpveo"),
    ("GCZVfW", "GCZbvg"),
    ("GCZfsw", "GCrdrw"),
    ("GCzVbw", "GCzbvg"),
]


def test_augmentation_reproduces_data_files():
    reps = [empty(1)]
    for n in range(1, 8):
        if n > 1:
            reps = generate_graphs.augment(reps, n)
        assert generate_graphs.file_text(reps) == (DATA_DIR / f"graphs{n}.g6").read_text()


def test_shared_bucket_keys_are_told_apart():
    lines = set((DATA_DIR / "graphs8.g6").read_text().split())
    for a, b in SHARED_KEY_N8:
        assert a in lines and b in lines
        g, h = parse_graph6(a), parse_graph6(b)
        assert generate_graphs.bucket_key(g) == generate_graphs.bucket_key(h)
        assert next(isomorphisms(g, h), None) is None
        assert next(isomorphisms(h, g), None) is None


def nx_invariants(nx, h) -> tuple:
    """Vertex and edge count, degree sequence and triangles per vertex."""
    return (
        h.number_of_nodes(),
        h.number_of_edges(),
        tuple(sorted(d for _, d in h.degree())),
        tuple(sorted(nx.triangles(h).values())),
    )


def test_data_files_match_the_networkx_atlas():
    # networkx's atlas holds every graph on 0 to 7 vertices: each line of
    # data/graphs1..7.g6 is isomorphic to exactly one of them, and each of
    # them but the 0-vertex graph to exactly one line
    nx = pytest.importorskip("networkx")
    graphs = nx.graph_atlas_g()
    atlas = collections.defaultdict(list)
    for k, h in enumerate(graphs):
        if h.number_of_nodes():
            atlas[nx_invariants(nx, h)].append((k, h))
    matched = []
    for n in range(1, 8):
        for line in census_lines(n):
            g = nx.from_graph6_bytes(line.encode())
            hits = [k for k, h in atlas[nx_invariants(nx, g)] if nx.is_isomorphic(g, h)]
            assert len(hits) == 1, line
            matched += hits
    assert sorted(matched) == list(range(1, len(graphs)))


def test_lines_sharing_edges_degrees_and_phi_are_not_isomorphic():
    # the generator's hard cases at n = 8, checked by an outside isomorphism test
    nx = pytest.importorskip("networkx")
    classes = collections.defaultdict(list)
    for line, g in zip(census_lines(8), census_graphs(8)):
        classes[len(g.edges), tuple(sorted(g.degrees())), graph_char_poly(g)].append(line)
    pairs = [p for lines in classes.values() for p in itertools.combinations(lines, 2)]
    assert len(pairs) == 130
    for a, b in pairs:
        assert not nx.is_isomorphic(nx.from_graph6_bytes(a.encode()), nx.from_graph6_bytes(b.encode()))
