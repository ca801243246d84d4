"""scripts/generate_graphs.py: the data files it writes and its bucket key."""

import importlib.util
import pathlib

from ctrlgraph.graphs import empty, isomorphisms, parse_graph6

from conftest import DATA_DIR

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
