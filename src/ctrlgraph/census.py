"""Census of controllability verdicts over streams of graph6 lines.

Each input line is analyzed independently (full-subset verdict, per-vertex
verdicts, irreducibility of the characteristic polynomial, optionally all
subsets), so the work parallelizes over lines.  Results are buffered and
emitted in input order: the CSV and JSON outputs are byte-identical no
matter how many workers ran.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import multiprocessing
from dataclasses import dataclass, field, fields

from . import control, irreducible
from .errors import Graph6Error, InternalConsistencyError
from .graphs import parse_graph6

SUBSET_GUARD = 16
CHUNKSIZE = 64

CSV_FORMAT_VERSION = 1


@dataclass
class CensusConfig:
    modes: tuple[str, ...] = ("full", "vertices")  # any of full/vertices/subsets
    workers: int = 1


@dataclass
class CensusRow:
    line: int
    graph6: str
    n: int | None = None
    rank_full: int | None = None
    dual_degree_full: int | None = None
    controllable_full: bool | None = None
    controllable_vertices: int | None = None
    irreducible_charpoly: bool | None = None
    controllable_subsets: int | None = None
    total_subsets: int | None = None
    error: str | None = None


CSV_COLUMNS = [f.name for f in fields(CensusRow)]


@dataclass
class CensusSummary:
    per_n: dict = field(default_factory=dict)
    errors: int = 0
    total: int = 0


def all_subsets(v: int):
    """Every subset of range(v), by size and then lexicographically."""
    for r in range(v + 1):
        yield from itertools.combinations(range(v), r)


def analyze_line(task) -> CensusRow:
    # perfbench/make_reference.py still sends a fourth element (None): ignored
    line_no, text, modes = task[:3]
    text = text.strip()
    row = CensusRow(line=line_no, graph6=text)
    try:
        g = parse_graph6(text)
    except Graph6Error as exc:
        row.error = str(exc)
        return row
    row.n = g.v
    if "subsets" in modes and g.v > SUBSET_GUARD:
        row.error = f"subset enumeration guarded at v <= {SUBSET_GUARD}"
        return row
    try:
        # phi's factors over Q, or None for a repeated root: the vertex and
        # subset counts and the irreducibility column are read from them;
        # the S = V columns come from the rank, checked against one gcd
        factors = irreducible.factors(control.graph_char_poly(g))
        phi_irreducible = factors is not None and len(factors) == 1
        if "full" in modes:
            rep = control.full_report(control.PairSpec.from_subset(g, range(g.v)))
            row.rank_full = rep.rank_of_w
            row.dual_degree_full = rep.dual_degree
            row.controllable_full = rep.controllable
            row.irreducible_charpoly = phi_irreducible
        if "vertices" in modes:
            row.controllable_vertices = control.controllable_vertex_count(g, factors)
        if "subsets" in modes:
            count, whole = control.controllable_subset_count(g, factors)
            if row.controllable_full not in (None, whole):
                raise InternalConsistencyError(
                    "factor criterion disagrees with the full report at S = V"
                )
            row.controllable_subsets = count
            row.total_subsets = 2**g.v
        # An irreducible phi has simple, Galois-conjugate eigenvalues: an
        # eigenvector orthogonal to a nonzero rational z would make all of
        # them so, hence every nonempty S is controllable, in every mode.
        if phi_irreducible and (
            row.controllable_full is False
            or row.controllable_vertices not in (None, g.v)
            or row.controllable_subsets not in (None, 2**g.v - 1)
        ):
            raise InternalConsistencyError(
                "irreducible characteristic polynomial but a pair is not controllable"
            )
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(f"line {line_no} ({row.graph6}): {exc}") from exc
    return row


def pool_size(workers: int, tasks: int) -> int:
    """Processes that run `tasks` lines, at most one per chunk; 1 is serial."""
    return max(1, min(workers, -(-tasks // CHUNKSIZE)))


def run_census(lines, config: CensusConfig):
    """Analyze every line; returns (rows, summary) in input order."""
    modes = tuple(config.modes)
    tasks = [(i + 1, line, modes) for i, line in enumerate(lines) if line.strip()]
    workers = pool_size(config.workers, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            rows = list(pool.imap(analyze_line, tasks, chunksize=CHUNKSIZE))
    else:
        rows = [analyze_line(t) for t in tasks]
    return rows, summarize(rows)


def summarize(rows) -> CensusSummary:
    summary = CensusSummary()
    for row in rows:
        summary.total += 1
        if row.error is not None:
            summary.errors += 1
            continue
        bucket = summary.per_n.setdefault(
            row.n,
            {
                "graphs": 0,
                "controllable": 0,
                "with_controllable_vertex": 0,
                "irreducible_charpoly": 0,
            },
        )
        bucket["graphs"] += 1
        if row.controllable_full:
            bucket["controllable"] += 1
        if row.controllable_vertices:
            bucket["with_controllable_vertex"] += 1
        if row.irreducible_charpoly:
            bucket["irreducible_charpoly"] += 1
    return summary


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            ["" if getattr(row, col) is None else getattr(row, col) for col in CSV_COLUMNS]
        )
    return buf.getvalue()


def row_to_json(row: CensusRow) -> dict:
    out = {}
    for col in CSV_COLUMNS:
        val = getattr(row, col)
        if val is not None:
            out[col] = val
    return out


def summary_to_json(summary: CensusSummary) -> dict:
    return {
        "format_version": CSV_FORMAT_VERSION,
        "total_lines": summary.total,
        "error_lines": summary.errors,
        "per_n": {
            str(n): summary.per_n[n] for n in sorted(summary.per_n)
        },
    }


def census_json_document(rows, summary) -> str:
    doc = {
        "summary": summary_to_json(summary),
        "rows": [row_to_json(r) for r in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
