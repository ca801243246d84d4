import dataclasses
import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from ctrlgraph import census, control, irreducible
from ctrlgraph.census import CensusConfig, run_census, rows_to_csv
from ctrlgraph.control import ADJUGATE_CACHE_SIZE, graph_char_poly
from ctrlgraph.errors import InternalConsistencyError
from ctrlgraph.graphs import cycle, emit_graph6, path

from conftest import census_lines, count_calls

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"


def test_small_counts():
    lines = list(census_lines(1)) + list(census_lines(4))
    rows, summary = run_census(lines, CensusConfig())
    assert summary.per_n[1]["graphs"] == 1
    assert summary.per_n[4]["graphs"] == 11
    assert summary.per_n[1]["controllable"] == 1
    assert summary.per_n[4]["controllable"] == 0


def test_worker_count_does_not_change_output():
    lines = list(census_lines(6))  # 156 lines, 3 chunks: the pool runs
    rows1, sum1 = run_census(lines, CensusConfig(workers=1))
    rows3, sum3 = run_census(lines, CensusConfig(workers=3))
    assert rows_to_csv(rows1) == rows_to_csv(rows3)
    assert census.summary_to_json(sum1) == census.summary_to_json(sum3)


def test_detail_rows_reverify_single_threaded():
    lines = list(census_lines(6))  # 3 chunks, so 2 workers start
    rows, _ = run_census(lines, CensusConfig(workers=2))
    for row, line in zip(rows, lines):
        again = census.analyze_line((row.line, line, ("full", "vertices"), None))
        assert row == again


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records the requested size and
    maps in this process, so no worker starts."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, tasks, chunksize):
        return map(func, tasks)


def test_pool_size_is_capped_by_chunk_count(monkeypatch):
    monkeypatch.setattr(census.multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    three = list(census_lines(3))[:3]
    rows, _ = run_census(three, CensusConfig(workers=64))
    assert len(rows) == 3 and _RecordingPool.sizes == []  # one chunk: serial
    lines = list(census_lines(6))  # 156 lines: 3 chunks of 64
    serial = rows_to_csv(run_census(lines, CensusConfig(workers=1))[0])
    pooled = rows_to_csv(run_census(lines, CensusConfig(workers=64))[0])
    assert _RecordingPool.sizes == [3] and pooled == serial
    run_census(lines, CensusConfig(workers=2))
    assert _RecordingPool.sizes == [3, 2]


def test_census_script_reports_the_processes_that_run():
    argv = [sys.executable, str(ROOT / "scripts" / "run_census.py"), "--max-n", "3",
            "--workers", "4"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    assert out.startswith("7 graphs, 1 worker, ")  # 7 lines make one chunk


def test_census_script_names_the_generator_range_past_it():
    # graphs9.g6 is missing, and the generator writes n <= 8 only: the script
    # says so before any census runs
    argv = [sys.executable, str(ROOT / "scripts" / "run_census.py"), "--max-n", "9"]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (
        f"missing {ROOT / 'data' / 'graphs9.g6'}; scripts/generate_graphs.py writes"
        " graphs1.g6 to graphs8.g6 only, so --max-n above 8 needs that file from"
        " another source\n"
    )


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


def test_subsets_mode_edge_cases():
    rows, _ = run_census(["?", "@"], CensusConfig(modes=("subsets",)))
    # v = 0: the empty subset has an empty, invertible walk matrix
    assert (rows[0].controllable_subsets, rows[0].total_subsets) == (1, 1)
    assert (rows[1].controllable_subsets, rows[1].total_subsets) == (1, 2)


def test_subsets_consistency_failure_names_the_line(monkeypatch):
    real = control.krylov_columns

    def off_by_one_for_ones(rows, z, count):
        cols = real(rows, z, count)
        if all(x == 1 for x in z):
            cols[0][0] += 1
        return cols

    monkeypatch.setattr(control, "krylov_columns", off_by_one_for_ones)
    # A? has a double eigenvalue: the bound decides it and no walk runs
    failure = r"line 2 \(Bg\): summed vertex walk columns"
    with pytest.raises(InternalConsistencyError, match=failure):
        run_census(["A?", "Bg"], CensusConfig(modes=("subsets",)))


def test_subsets_full_verdict_checked_against_full_report(monkeypatch):
    real = control.controllable_subset_count

    def flipped(g, factors):
        count, whole = real(g, factors)
        return count, not whole

    monkeypatch.setattr(control, "controllable_subset_count", flipped)
    # subsets mode alone has no full report to compare with
    run_census(["Bg"], CensusConfig(modes=("subsets",)))
    failure = r"line 1 \(Bg\): factor criterion disagrees with the full report"
    with pytest.raises(InternalConsistencyError, match=failure):
        run_census(["Bg"], CensusConfig(modes=("full", "subsets")))


def _fewer_controllable_vertices(real):
    return lambda g, factors: real(g, factors) - 1


def _fewer_controllable_subsets(real):
    def fewer(g, factors):
        count, whole = real(g, factors)
        return count - 1, whole

    return fewer


def _uncontrollable_full_report(real):
    # controllable is read from the rank: one short of v makes it False
    return lambda p: dataclasses.replace(real(p), rank_of_w=p.graph.v - 1)


@pytest.mark.parametrize(
    "mode, name, broken",
    [
        ("full", "full_report", _uncontrollable_full_report),
        ("vertices", "controllable_vertex_count", _fewer_controllable_vertices),
        ("subsets", "controllable_subset_count", _fewer_controllable_subsets),
    ],
)
def test_irreducible_phi_check_runs_in_every_mode(monkeypatch, mode, name, broken):
    # ECqo has an irreducible phi of degree 6, so all 63 nonempty subsets
    # are controllable; a count that breaks this fails in each mode alone
    rows, _ = run_census(["ECqo"], CensusConfig(modes=(mode,)))
    assert rows[0].irreducible_charpoly is (True if mode == "full" else None)
    monkeypatch.setattr(control, name, broken(getattr(control, name)))
    failure = r"line 1 \(ECqo\): irreducible characteristic polynomial but a pair"
    with pytest.raises(InternalConsistencyError, match=failure):
        run_census(["ECqo"], CensusConfig(modes=(mode,)))


def test_default_line_factors_phi_once(monkeypatch):
    # the counts read phi's factors; the S = V report takes its own gcd
    factored = []
    count_calls(monkeypatch, irreducible, "factors", factored)
    for g in (path(8), cycle(8)):  # phi squarefree, phi with repeated roots
        factored.clear()
        census.analyze_line((1, emit_graph6(g), ("full", "vertices"), None))
        assert factored == [(graph_char_poly(g),)], g


def test_subsets_guard_comes_before_factoring(monkeypatch):
    # a graph past the guard gets its error row without phi being factored
    def refuse(phi):
        raise RuntimeError(f"phi of a {len(phi) - 1}-vertex graph factored")

    monkeypatch.setattr(irreducible, "factors", refuse)
    line = emit_graph6(path(census.SUBSET_GUARD + 1))
    for modes in (("subsets",), ("full", "vertices", "subsets")):
        rows, summary = run_census([line], CensusConfig(modes=modes))
        assert rows[0].n == census.SUBSET_GUARD + 1
        assert rows[0].error == f"subset enumeration guarded at v <= {census.SUBSET_GUARD}"
        assert summary.errors == 1


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
    assert header == (
        "line,graph6,n,rank_full,dual_degree_full,controllable_full,"
        "controllable_vertices,irreducible_charpoly,controllable_subsets,"
        "total_subsets,error"
    )


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
