#!/usr/bin/env python3
"""Run the controllability census over data/graphs{n}.g6 and print the
evidence table for the everything-is-eventually-controllable conjecture.

For each n the table shows how many graphs are controllable with S = V,
how many have at least one controllable vertex, and how many have an
irreducible characteristic polynomial.  The interesting signal is the
controllable fraction creeping upward with n.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ctrlgraph.census import CensusConfig, pool_size, run_census, rows_to_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--csv-out", help="also write the per-graph detail CSV")
    args = parser.parse_args()

    data_dir = pathlib.Path(__file__).resolve().parent.parent / "data"
    lines = []
    for n in range(1, args.max_n + 1):
        f = data_dir / f"graphs{n}.g6"
        if not f.exists():
            raise SystemExit(f"missing {f}; run scripts/generate_graphs.py first")
        lines.extend(f.read_text().splitlines())

    t0 = time.monotonic()
    rows, summary = run_census(lines, CensusConfig(workers=args.workers))
    elapsed = time.monotonic() - t0

    workers = pool_size(args.workers, len(lines))
    print(f"{len(lines)} graphs, {workers} worker{'s' * (workers != 1)}, {elapsed:.1f}s")
    print()
    print(f"{'n':>2} {'graphs':>7} {'controllable':>12} {'fraction':>9} "
          f"{'ctrl vertex':>11} {'irred poly':>10}")
    for n in sorted(summary.per_n):
        b = summary.per_n[n]
        frac = b["controllable"] / b["graphs"]
        print(f"{n:>2} {b['graphs']:>7} {b['controllable']:>12} {frac:>9.4f} "
              f"{b['with_controllable_vertex']:>11} {b['irreducible_charpoly']:>10}")

    if args.csv_out:
        pathlib.Path(args.csv_out).write_text(rows_to_csv(rows))
        print(f"\ndetail rows -> {args.csv_out}")

    if summary.errors:
        raise SystemExit(f"{summary.errors} lines failed to parse")


if __name__ == "__main__":
    main()
