"""scripts/check_reference.py: a census CSV or an analyze stream read from a
file or from stdin (`-`) gives the same rows."""

import collections
import importlib.util
import io
import pathlib
import sys

from ctrlgraph import cli
from ctrlgraph.graphs import parse_graph6

from conftest import census_lines

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_reference.py"

_spec = importlib.util.spec_from_file_location("check_reference", SCRIPT)
check_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_reference)


def rows_from_stdin(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    return check_reference.read_rows("-")


def test_analyze_stream_from_stdin(tmp_path, monkeypatch):
    text = ""
    for k, g6 in enumerate(census_lines(8)[:2]):
        out = tmp_path / f"{k}.json"
        assert cli.main(["analyze", g6, "--subset", "all", "--out", str(out)]) == 0
        text += out.read_text()
    path = tmp_path / "analyze.json"
    path.write_text(text)
    rows = check_reference.read_rows(path)
    assert list(rows) == ["1", "2"]
    assert rows_from_stdin(monkeypatch, text) == rows
    reference = check_reference.read_rows(check_reference.REFERENCE)
    columns = ("rank_full", "controllable_vertices", "controllable_subsets", "rank_sum")
    for line, row in rows.items():
        assert row["error"] == "" and row["total_subsets"] == "256"
        for col in columns:
            assert check_reference.VERDICTS[col](row[col]) == reference[line][col], col


def test_census_csv_from_stdin(tmp_path, monkeypatch):
    g6file = tmp_path / "in.g6"
    g6file.write_text("\n".join(census_lines(8)[:3]) + "\n")
    path = tmp_path / "census.csv"
    args = ["census", "--input", str(g6file), "--format", "csv", "--out", str(path)]
    assert cli.main(args + ["--summary-out", str(tmp_path / "sum.json")]) == 0
    rows = check_reference.read_rows(path)
    assert list(rows) == ["1", "2", "3"]
    assert rows_from_stdin(monkeypatch, path.read_bytes().decode()) == rows


def test_reference_is_symmetric_under_complement():
    # complementation maps the 8-vertex graphs at e edges one to one onto
    # those at 28 - e and keeps rank W(1), hence controllability
    graphs, controllable = collections.Counter(), collections.Counter()
    for row in check_reference.read_rows(check_reference.REFERENCE).values():
        e = len(parse_graph6(row["graph6"]).edges)
        graphs[e] += 1
        controllable[e] += row["controllable_full"] == "1"
    assert sum(graphs.values()) == 12346 and sum(controllable.values()) == 2332
    for e in range(29):
        assert (graphs[e], controllable[e]) == (graphs[28 - e], controllable[28 - e]), e
