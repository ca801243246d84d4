"""Build the reference verdicts the benchmark checks its outputs against.

Run once from the repository root, with the library code the reference
should come from:

    python3 perfbench/make_reference.py

For every line of data/graphs8.g6 it records the census row (default
modes) and, over all 256 subsets, the number of controllable subsets and
the summed walk-matrix rank.  The per-n controllable counts for n = 6, 7, 8
are checked against the paper (8/156, 92/1044, 2332/12346) before anything
is written.
"""

from __future__ import annotations

import csv
import itertools
import multiprocessing
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctrlgraph import census, control  # noqa: E402
from ctrlgraph.graphs import parse_graph6  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent / "reference" / "graphs8.csv"
COLUMNS = [
    "line",
    "graph6",
    "rank_full",
    "controllable_full",
    "controllable_vertices",
    "irreducible_charpoly",
    "controllable_subsets",
    "rank_sum",
]
PAPER_COUNTS = {6: (8, 156), 7: (92, 1044), 8: (2332, 12346)}


def reference_row(task):
    line_no, text = task
    row = census.analyze_line((line_no, text, ("full", "vertices"), None))
    if row.error is not None:
        raise RuntimeError(f"line {line_no} {text!r}: {row.error}")
    g = parse_graph6(text)
    ranks = [
        control.walk_matrix_rank(control.PairSpec.from_subset(g, s))
        for r in range(g.v + 1)
        for s in itertools.combinations(range(g.v), r)
    ]
    return [
        line_no,
        row.graph6,
        row.rank_full,
        int(row.controllable_full),
        row.controllable_vertices,
        int(row.irreducible_charpoly),
        sum(1 for k in ranks if k == g.v),
        sum(ranks),
    ]


def controllable_count(n: int) -> tuple[int, int]:
    lines = (ROOT / "data" / f"graphs{n}.g6").read_text().splitlines()
    _, summary = census.run_census(lines, census.CensusConfig(modes=("full",)))
    bucket = summary.per_n[n]
    return bucket["controllable"], bucket["graphs"]


def main() -> int:
    for n in (6, 7):
        got = controllable_count(n)
        if got != PAPER_COUNTS[n]:
            sys.exit(f"n={n}: controllable {got}, paper says {PAPER_COUNTS[n]}")
    lines = (ROOT / "data" / "graphs8.g6").read_text().splitlines()
    tasks = [(i + 1, text) for i, text in enumerate(lines)]
    with multiprocessing.Pool(2, maxtasksperchild=500) as pool:
        rows = list(pool.imap(reference_row, tasks, chunksize=25))
    got = (sum(r[3] for r in rows), len(rows))
    if got != PAPER_COUNTS[8]:
        sys.exit(f"n=8: controllable {got}, paper says {PAPER_COUNTS[8]}")
    with open(OUT, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
