#!/usr/bin/env python3
"""Check a census CSV of data/graphs8.g6 against the stored verdicts in
perfbench/reference/graphs8.csv, which it only reads.

    ctrlgraph census --input data/graphs8.g6 --format csv --out census8.csv
    python3 scripts/check_reference.py census8.csv
    ctrlgraph census --input data/graphs8.g6 --mode subsets --format csv --out subsets8.csv
    python3 scripts/check_reference.py subsets8.csv

It checks each verdict column the CSV carries (has a value in on some
row): `rank_full`, `controllable_full`, `controllable_vertices`,
`irreducible_charpoly` and `controllable_subsets`.  Every reference line
must appear once, with the same graph6 string, no error, a value in each
carried column equal to the reference's, and 256 subsets when
`controllable_subsets` is carried.  Exits 1 and names the first
mismatches otherwise.
"""

import argparse
import csv
import pathlib
import sys

REFERENCE = (
    pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "graphs8.csv"
)
# census column -> how its cell reads in the reference (booleans are 0/1 there)
VERDICTS = {
    "rank_full": str,
    "controllable_full": lambda cell: str(int(cell == "True")),
    "controllable_vertices": str,
    "irreducible_charpoly": lambda cell: str(int(cell == "True")),
    "controllable_subsets": str,
}
SHOWN = 10


def read_rows(path) -> dict:
    with open(path, newline="") as fh:
        return {row["line"]: row for row in csv.DictReader(fh)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("census_csv", help="CSV output of ctrlgraph census")
    args = parser.parse_args()

    reference = read_rows(REFERENCE)
    got = read_rows(args.census_csv)
    carried = [c for c in VERDICTS if any(row.get(c) for row in got.values())]
    problems = []
    if not carried:
        problems.append(f"no verdict column of {', '.join(VERDICTS)}")
    if len(got) != len(reference):
        problems.append(f"{len(got)} rows, reference has {len(reference)}")
    for line, ref in reference.items():
        row = got.get(line)
        if row is None:
            problems.append(f"line {line}: missing")
        elif row["error"] or row["graph6"] != ref["graph6"] or (
            "controllable_subsets" in carried and row["total_subsets"] != "256"
        ):
            problems.append(f"line {line} ({ref['graph6']}): bad row {row}")
        else:
            for col in carried:
                if not row[col] or VERDICTS[col](row[col]) != ref[col]:
                    problems.append(
                        f"line {line} ({ref['graph6']}): {col} {row[col]!r}, reference {ref[col]}"
                    )
    if problems:
        print(f"{len(problems)} mismatches against {REFERENCE.name}:", file=sys.stderr)
        for p in problems[:SHOWN]:
            print(f"  {p}", file=sys.stderr)
        raise SystemExit(1)
    print(f"{len(reference)} rows match {REFERENCE.name} on {', '.join(carried)}")


if __name__ == "__main__":
    main()
