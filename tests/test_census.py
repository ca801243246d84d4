import json
import pathlib

import jsonschema

from ctrlgraph import census, control
from ctrlgraph.census import CensusConfig, run_census, rows_to_csv
from ctrlgraph.control import ADJUGATE_CACHE_SIZE

from conftest import census_lines

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def test_small_counts():
    lines = list(census_lines(1)) + list(census_lines(4))
    rows, summary = run_census(lines, CensusConfig())
    assert summary.per_n[1]["graphs"] == 1
    assert summary.per_n[4]["graphs"] == 11
    assert summary.per_n[1]["controllable"] == 1
    assert summary.per_n[4]["controllable"] == 0


def test_worker_count_does_not_change_output():
    lines = list(census_lines(5))
    rows1, sum1 = run_census(lines, CensusConfig(workers=1))
    rows3, sum3 = run_census(lines, CensusConfig(workers=3))
    assert rows_to_csv(rows1) == rows_to_csv(rows3)
    assert census.summary_to_json(sum1) == census.summary_to_json(sum3)


def test_detail_rows_reverify_single_threaded():
    lines = list(census_lines(6))[::13]
    rows, _ = run_census(lines, CensusConfig(workers=2))
    for row, line in zip(rows, lines):
        again = census.analyze_line((row.line, line, ("full", "vertices"), None))
        assert row == again


def test_malformed_line_recorded():
    rows, summary = run_census(["A_", "!!notgraph6!!", "@"], CensusConfig())
    assert summary.errors == 1
    assert rows[1].error is not None
    assert rows[0].error is None and rows[2].error is None


def test_subsets_mode():
    rows, _ = run_census(["Bg"], CensusConfig(modes=("subsets",)))  # P3
    assert rows[0].total_subsets == 8
    # two controllable singletons (the ends) and the two end+center pairs
    assert rows[0].controllable_subsets == 4


def test_max_n_guard():
    rows, summary = run_census(list(census_lines(5))[:3], CensusConfig(max_n=4))
    assert all(r.error for r in rows)
    assert summary.errors == 3


def test_summary_json_matches_schema():
    schema = json.loads((DOCS / "census_summary.schema.json").read_text())
    _, summary = run_census(list(census_lines(3)), CensusConfig())
    jsonschema.validate(census.summary_to_json(summary), schema)


def test_csv_header_matches_doc():
    doc = (DOCS / "census_csv.md").read_text()
    for col in census.CSV_COLUMNS:
        assert f"`{col}`" in doc
    header = rows_to_csv([]).splitlines()[0]
    assert header == ",".join(census.CSV_COLUMNS)


def test_graph_keyed_caches_stay_bounded():
    # a long stream must not grow the per-graph kernel and polynomial caches
    run_census(list(census_lines(7)), CensusConfig(workers=1))
    for cached in (
        control.graph_adjugate,
        control.graph_char_poly,
        control.vertex_deleted_char_polys,
    ):
        info = cached.cache_info()
        assert info.maxsize == ADJUGATE_CACHE_SIZE
        assert info.currsize <= ADJUGATE_CACHE_SIZE
