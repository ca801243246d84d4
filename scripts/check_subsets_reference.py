#!/usr/bin/env python3
"""Check a `census --mode subsets` CSV of data/graphs8.g6 against the
stored verdicts in perfbench/reference/graphs8.csv, which it only reads.

    ctrlgraph census --input data/graphs8.g6 --mode subsets --format csv --out subsets8.csv
    python3 scripts/check_subsets_reference.py subsets8.csv

Every reference line must appear once, with the same graph6 string, no
error, 256 subsets and the reference `controllable_subsets` value.  Exits
1 and names the first mismatches otherwise.
"""

import argparse
import csv
import pathlib
import sys

REFERENCE = (
    pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "graphs8.csv"
)
SHOWN = 10


def read_rows(path) -> dict:
    with open(path, newline="") as fh:
        return {row["line"]: row for row in csv.DictReader(fh)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("census_csv", help="output of ctrlgraph census --mode subsets")
    args = parser.parse_args()

    reference = read_rows(REFERENCE)
    got = read_rows(args.census_csv)
    problems = []
    if len(got) != len(reference):
        problems.append(f"{len(got)} rows, reference has {len(reference)}")
    for line, ref in reference.items():
        row = got.get(line)
        if row is None:
            problems.append(f"line {line}: missing")
        elif row["error"] or row["graph6"] != ref["graph6"] or row["total_subsets"] != "256":
            problems.append(f"line {line} ({ref['graph6']}): bad row {row}")
        elif row["controllable_subsets"] != ref["controllable_subsets"]:
            problems.append(
                f"line {line} ({ref['graph6']}): controllable_subsets "
                f"{row['controllable_subsets']}, reference {ref['controllable_subsets']}"
            )
    if problems:
        print(f"{len(problems)} mismatches against {REFERENCE.name}:", file=sys.stderr)
        for p in problems[:SHOWN]:
            print(f"  {p}", file=sys.stderr)
        raise SystemExit(1)
    print(f"{len(reference)} controllable_subsets values match {REFERENCE.name}")


if __name__ == "__main__":
    main()
