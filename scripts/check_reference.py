#!/usr/bin/env python3
"""Check a census CSV, or a stream of `analyze --subset all` documents, of
data/graphs8.g6 against the stored verdicts in
perfbench/reference/graphs8.csv, which it only reads.

    ctrlgraph census --input data/graphs8.g6 --format csv --out census8.csv
    python3 scripts/check_reference.py census8.csv
    ctrlgraph census --input data/graphs8.g6 --mode subsets --format csv --out subsets8.csv
    python3 scripts/check_reference.py subsets8.csv
    set -o pipefail
    python3 -c 'import sys; from ctrlgraph.cli import main; sys.exit(max(main(["analyze",
        g, "--subset", "all"]) for g in open("data/graphs8.g6").read().split()))' \
        | python3 scripts/check_reference.py -

The input `-` is read from stdin, which spares the analyze stream of all
8-vertex graphs (about 1 GB) a file.

It checks each verdict column the input carries (has a value in on some
row): `rank_full`, `controllable_full`, `controllable_vertices`,
`irreducible_charpoly`, `controllable_subsets` and `rank_sum`.  An input
that starts with `{` is read as analyze documents, one per line of
graphs8.g6 in order; each gives `controllable_subsets` and `rank_sum`
over its reports, `rank_full` from its report at S = V and
`controllable_vertices` from its singletons.  Every reference line must
appear once, with the same graph6 string, no error, a value in each
carried column equal to the reference's, and 256 distinct subsets when
`controllable_subsets` is carried.  Exits 1 and names the first
mismatches otherwise.
"""

import argparse
import csv
import io
import itertools
import json
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
    "rank_sum": str,
}
SHOWN = 10


def analyze_row(doc: dict) -> dict:
    """The reference's columns, as census cells, of one analyze document."""
    reports = doc["reports"]
    full = [r["rank_of_w"] for r in reports if len(r["subset"]) == doc["n"]]
    return {
        "graph6": doc["graph6"],
        "error": "" if len(full) == 1 else f"{len(full)} reports at S = V",
        "total_subsets": str(len({tuple(r["subset"]) for r in reports})),
        "rank_full": str(full[0]) if full else "",
        "controllable_vertices": str(
            sum(r["controllable"] for r in reports if len(r["subset"]) == 1)
        ),
        "controllable_subsets": str(sum(r["controllable"] for r in reports)),
        "rank_sum": str(sum(r["rank_of_w"] for r in reports)),
    }


def analyze_docs(fh):
    """The documents of an analyze stream one at a time (the stream of all
    8-vertex graphs is about 1 GB): each ends with a line holding only `}`,
    as `json.dumps` with an indent writes it.  A truncated last document
    is dropped, and its line is then missing."""
    lines = []
    for line in fh:
        lines.append(line)
        if line.rstrip("\n") == "}":
            yield json.loads("".join(lines))
            lines = []


def read_rows(path) -> dict:
    """The rows of a census CSV or analyze stream at path, `-` for stdin;
    the first line tells the two apart, so a pipe needs no seek."""
    if path == "-":
        fh = io.TextIOWrapper(sys.stdin.buffer, newline="")
    else:
        fh = open(path, newline="")
    with fh:
        first = fh.readline()
        lines = itertools.chain([first], fh)
        if first.startswith("{"):
            return {str(i): analyze_row(doc) for i, doc in enumerate(analyze_docs(lines), 1)}
        return {row["line"]: row for row in csv.DictReader(lines)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "output",
        help="CSV output of ctrlgraph census, or analyze --subset all documents; - for stdin",
    )
    args = parser.parse_args()

    reference = read_rows(REFERENCE)
    got = read_rows(args.output)
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
