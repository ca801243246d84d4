#!/usr/bin/env python3
"""Generate data/graphs{n}.g6: all non-isomorphic simple graphs, n = 1..8.

Augmentation: every graph on n vertices arises from some graph on n-1
vertices by adding one vertex with some neighbourhood, so extend each
(n-1)-representative by all 2^(n-1) neighbourhoods, bucket candidates by
an exact invariant (vertex profiles and characteristic polynomial) and
keep a candidate only when `graphs.isomorphisms` finds no bijection onto
any graph already in its bucket.  Output lines are sorted by (edge count,
graph6 string), so the files are reproducible byte for byte.  Runs on the
library alone.

Expected counts per n: 1, 2, 4, 11, 34, 156, 1044, 12346.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ctrlgraph.graphs import Graph, emit_graph6, empty, isomorphisms, vertex_profiles
from ctrlgraph.matrices import char_poly

EXPECTED = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
MAX_N = 8


def bucket_key(g: Graph):
    return tuple(sorted(vertex_profiles(g))), char_poly(g.rows)


def augment(reps, n):
    """All non-isomorphic graphs on n vertices from representatives on n-1."""
    buckets = {}
    for parent in reps:
        for mask_bits in range(2 ** (n - 1)):
            new = tuple(mask_bits >> k & 1 for k in range(n - 1))
            cand = Graph((*(r + (x,) for r, x in zip(parent.rows, new)), new + (0,)))
            bucket = buckets.setdefault(bucket_key(cand), [])
            if all(next(isomorphisms(cand, seen), None) is None for seen in bucket):
                bucket.append(cand)
    return [g for bucket in buckets.values() for g in bucket]


def file_text(reps) -> str:
    """The graph6 lines of reps, sorted by (edge count, graph6 string)."""
    lines = sorted((len(g.edges), emit_graph6(g)) for g in reps)
    return "".join(line + "\n" for _, line in lines)


def main():
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "data"
    out_dir.mkdir(exist_ok=True)
    reps = [empty(1)]
    for n in range(1, MAX_N + 1):
        if n > 1:
            reps = augment(reps, n)
        if len(reps) != EXPECTED[n]:
            raise SystemExit(f"n={n}: generated {len(reps)} graphs, expected {EXPECTED[n]}")
        path = out_dir / f"graphs{n}.g6"
        path.write_text(file_text(reps))
        print(f"n={n}: {len(reps)} graphs -> {path}")


if __name__ == "__main__":
    main()
