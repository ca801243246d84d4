import io
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest
import sympy

from ctrlgraph import cli, irreducible
from ctrlgraph.control import graph_char_poly
from ctrlgraph.errors import InternalConsistencyError
from ctrlgraph.graphs import complete, emit_graph6, parse_graph6, path

from conftest import DATA_DIR, census_lines
from test_golden import LTI_SPEC

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"

P3 = emit_graph6(path(3))
P5 = emit_graph6(path(5))

K2_SYSTEM = {"a": [[0, 1], [1, 0]], "b": [1, 0], "c": [1, 0]}
RATIONAL_A_SPEC = {"a": [["1/2", 0], [1, 0]], "b": [1, 0], "c": [0, 1]}
SINGULAR_RECOVERY_SPEC = {
    "a": [[1, 0], [0, 1]],
    "b": [1, 0],
    "c": [1, 0],
    "recover": {"outputs": [1, 1], "m": 0},
}
SKIPPED_IDENTITY_SPEC = {**K2_SYSTEM, "inputs": [1, 2], "order": 9}


def run(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_analyze_full_not_controllable(tmp_path):
    code, text = run(["analyze", "A_"], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["n"] == 2
    assert doc["reports"][0]["controllable"] is False


def test_analyze_p5_end_vertex(tmp_path):
    code, text = run(["analyze", P5, "--subset", "0"], tmp_path)
    assert code == cli.EXIT_OK
    rep = json.loads(text)["reports"][0]
    assert rep["controllable"] is True
    assert rep["rank_of_w"] == 5
    assert rep["verdicts"]["rank"] is True and rep["verdicts"]["poles"] is True


def test_analyze_empty_graph(tmp_path):
    code, text = run(["analyze", "?", "--subset", "full"], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["n"] == 0
    [rep] = doc["reports"]
    assert rep["rank_of_w"] == 0
    assert rep["verdicts"]["rank"] == rep["verdicts"]["poles"]


def test_analyze_report_schema(tmp_path):
    schema = json.loads((DOCS / "analyze_report.schema.json").read_text())
    for extra in ([], ["--subset", "all"], ["--subset", "vertices"]):
        _, text = run(["analyze", P3] + extra, tmp_path)
        jsonschema.validate(json.loads(text), schema)


def test_analyze_layout_is_json_dumps(capsys):
    # the report layout written directly is the bytes json.dumps writes:
    # every graph on up to 6 vertices, the 7-vertex graphs whose graph6
    # holds a backslash (escaped in JSON) and the 0-vertex graph
    backslash = [line for line in census_lines(7) if "\\" in line]
    assert len(backslash) == 14
    graphs = ["?", *(line for n in range(1, 7) for line in census_lines(n)), *backslash]
    for graph6 in graphs:
        v = parse_graph6(graph6).v
        for selector in ("all", "vertices", "full", ",".join(map(str, range(0, v, 2)))):
            assert cli.main(["analyze", graph6, "--subset", selector]) == cli.EXIT_OK
            out = capsys.readouterr().out
            want = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
            assert out == want, (graph6, selector)


def test_analyze_bad_inputs(tmp_path, capsys):
    code, _ = run(["analyze", "B="], tmp_path)  # char below graph6 range
    assert code == cli.EXIT_INPUT
    code, _ = run(["analyze", P3, "--subset", "0,7"], tmp_path)
    assert code == cli.EXIT_INPUT
    code, _ = run(["analyze", emit_graph6(path(17)), "--subset", "all"], tmp_path)
    assert code == cli.EXIT_GUARD
    capsys.readouterr()
    code, text = run(["analyze", P3, "--subset", "x"], tmp_path)
    assert code == cli.EXIT_INPUT and text == ""
    assert "bad subset selector 'x'" in capsys.readouterr().err


def test_analyze_consistency_failure_names_graph_and_subset(tmp_path, monkeypatch, capsys):
    # vertex 1 of P3 is not controllable; a coprime verdict saying it is
    # (a gcd of phi(X minus u) and phi that is always 1) disagrees with the
    # rank and pole verdicts, which read phi's factors
    monkeypatch.setattr(cli.control, "poly_gcd", lambda f, g: (1,))
    code, text = run(["analyze", P3, "--subset", "vertices"], tmp_path)
    assert code == cli.EXIT_INCONSISTENT and text == ""
    err = capsys.readouterr().err
    assert f"graph {P3}: characterizations disagree for subset [1]" in err
    assert "rows=" not in err


def test_analyze_singleton_numerator_check_names_graph(tmp_path, monkeypatch, capsys):
    # phi(X minus u) read for the wrong vertex: P3 deletes to 2K1 at its
    # middle vertex and to K2 at its ends
    real = cli.control.vertex_deleted_char_polys
    monkeypatch.setattr(
        cli.control, "vertex_deleted_char_polys", lambda g: real(g)[1:] + real(g)[:1]
    )
    code, text = run(["analyze", P3, "--subset", "all"], tmp_path)
    assert code == cli.EXIT_INCONSISTENT and text == ""
    err = capsys.readouterr().err
    assert f"graph {P3}: phi_S read from the walk of subset [0] differs" in err


def test_analyze_vertex_deleted_polys_must_sum_to_the_derivative(tmp_path, monkeypatch, capsys):
    # a corrupted adjugate diagonal: the constant term of
    # phi(P3 minus 0) = t^2 - 1, as the kernel pass returns it, read as 0,
    # so sum_u phi(X minus u) is no longer phi'
    real = cli.control.graph_adjugate.__wrapped__

    def corrupted(g):
        phi, deleted = real(g)
        deleted = [list(d) for d in deleted]
        deleted[0][0] += 1
        return phi, deleted

    monkeypatch.setattr(cli.control, "graph_adjugate", corrupted)
    cli.control.vertex_deleted_char_polys.cache_clear()
    try:
        code, text = run(["analyze", P3, "--subset", "vertices"], tmp_path)
    finally:
        cli.control.vertex_deleted_char_polys.cache_clear()
    assert code == cli.EXIT_INCONSISTENT and text == ""
    err = capsys.readouterr().err
    assert f"graph {P3}: the phi(X minus u) on the adjugate diagonal do not sum to phi'" in err


def fresh_stdout(argv) -> str:
    """What the CLI writes to stdout in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parent.parent)}
    argv = [sys.executable, "-m", "ctrlgraph.cli", *argv]
    return subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # main builds its parser on the first call and reuses it: analyze,
    # census and analyze again, each to stdout and then with --out, write
    # the bytes of a fresh call
    calls = [
        ["analyze", P5, "--subset", "all"],
        ["census", "--input", str(DATA_DIR / "graphs4.g6"), "--format", "csv"],
        ["analyze", "DhC", "--subset", "vertices"],
    ]
    out = tmp_path / "out.txt"
    for argv in calls:
        want = fresh_stdout(argv)
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == want, argv
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
        assert out.read_text() == want and capsys.readouterr().out == "", argv


def test_census_csv_and_json_agree(tmp_path):
    g6file = tmp_path / "in.g6"
    g6file.write_text("\n".join(emit_graph6(path(n)) for n in range(2, 7)) + "\n")
    code, text = run(
        ["census", "--input", str(g6file), "--format", "csv",
         "--summary-out", str(tmp_path / "sum.json")],
        tmp_path, "out.csv",
    )
    assert code == cli.EXIT_OK
    assert text.splitlines()[0].startswith("line,graph6,n,")
    summary = json.loads((tmp_path / "sum.json").read_text())
    assert summary["total_lines"] == 5
    assert summary["error_lines"] == 0

    code, jtext = run(["census", "--input", str(g6file)], tmp_path)
    assert code == cli.EXIT_OK
    assert json.loads(jtext)["summary"] == summary


def test_census_empty_graph_line(tmp_path):
    g6file = tmp_path / "in.g6"
    g6file.write_text("?\n")
    code, text = run(
        ["census", "--input", str(g6file), "--format", "csv",
         "--summary-out", str(tmp_path / "sum.json")],
        tmp_path, "out.csv",
    )
    assert code == cli.EXIT_OK
    header, row = text.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["n"] == "0"
    summary = json.loads((tmp_path / "sum.json").read_text())
    assert summary["error_lines"] == 0
    assert summary["per_n"]["0"]["graphs"] == 1


def test_census_lenient_exit(tmp_path):
    g6file = tmp_path / "in.g6"
    g6file.write_text("A_\nbogus line\n")
    code, _ = run(["census", "--input", str(g6file)], tmp_path)
    assert code == cli.EXIT_INPUT
    code, text = run(["census", "--input", str(g6file), "--lenient"], tmp_path)
    assert code == cli.EXIT_OK
    assert json.loads(text)["summary"]["error_lines"] == 1


def test_census_error_rows_keep_the_stripped_line(tmp_path):
    g6file = tmp_path / "in.g6"
    g6file.write_text("A_\nB!\nBw\n")
    argv = ["census", "--input", str(g6file), "--format", "csv", "--lenient",
            "--summary-out", str(tmp_path / "sum.json")]
    code, text = run(argv, tmp_path, "out.csv")
    assert code == cli.EXIT_OK
    lines = text.split("\n")
    assert len(lines) == 5 and lines[-1] == ""  # header + 3 rows, newline-ended
    header, bad = lines[0].split(","), lines[2].split(",")
    assert bad[header.index("graph6")] == "B!" and bad[header.index("error")]
    code, text = run(argv[:4] + ["json", "--lenient"], tmp_path)
    assert code == cli.EXIT_OK
    assert [r["graph6"] for r in json.loads(text)["rows"]] == ["A_", "B!", "Bw"]


def test_census_file_errors_are_input_errors(tmp_path, capsys):
    good = tmp_path / "in.g6"
    good.write_text("A_\n")
    bad_bytes = tmp_path / "bad.g6"
    bad_bytes.write_bytes(b"\xff\xfe")
    missing_dir = tmp_path / "no" / "such"
    cases = [
        (["--input", str(tmp_path / "missing.g6")], "missing.g6"),
        (["--input", str(tmp_path)], str(tmp_path)),
        (["--input", str(bad_bytes)], "bad.g6"),
        (["--input", str(good), "--out", str(missing_dir / "o.json")], "o.json"),
        (["--input", str(good), "--format", "csv",
          "--summary-out", str(missing_dir / "s.json")], "s.json"),
    ]
    for extra, name in cases:
        assert cli.main(["census", *extra]) == cli.EXIT_INPUT, extra
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ") and name in err, extra


def test_census_summary_out_in_both_formats(tmp_path):
    g6file = tmp_path / "in.g6"
    g6file.write_text("A_\nBw\n")
    summaries = {}
    for fmt in ("json", "csv"):
        summary = tmp_path / f"{fmt}.summary.json"
        code, text = run(
            ["census", "--input", str(g6file), "--format", fmt,
             "--summary-out", str(summary)],
            tmp_path, f"out.{fmt}",
        )
        assert code == cli.EXIT_OK and text
        summaries[fmt] = json.loads(summary.read_text())
    assert summaries["json"] == summaries["csv"]
    assert summaries["json"]["total_lines"] == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_census_csv_from_stdin_matches_the_file_run(tmp_path, monkeypatch, capsys, n):
    # the benchmark's path: graph6 on stdin, CSV on stdout, summary on stderr
    source = DATA_DIR / f"graphs{n}.g6"
    csv, summary = tmp_path / "out.csv", tmp_path / "summary.json"
    argv = ["census", "--format", "csv"]
    assert cli.main([*argv, "--input", str(source), "--out", str(csv),
                     "--summary-out", str(summary)]) == cli.EXIT_OK
    monkeypatch.setattr(sys, "stdin", io.StringIO(source.read_text()))
    assert cli.main(argv) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out.encode() == csv.read_bytes()
    assert err.encode() == summary.read_bytes()


def test_census_refuses_fewer_than_one_worker(tmp_path, capsys):
    g6file = tmp_path / "in.g6"
    g6file.write_text("A_\n")
    for workers in ("0", "-2"):
        argv = ["census", "--input", str(g6file), "--workers", workers]
        code, text = run(argv, tmp_path)
        assert code == cli.EXIT_INPUT and text == ""
        assert "--workers" in capsys.readouterr().err


def test_census_refuses_negative_max_n(tmp_path, capsys):
    g6file = tmp_path / "in.g6"
    g6file.write_text("A_\n")
    code, text = run(["census", "--input", str(g6file), "--max-n", "-1"], tmp_path)
    assert code == cli.EXIT_INPUT and text == ""
    assert "--max-n" in capsys.readouterr().err


def test_census_consistency_failure_names_line(tmp_path, monkeypatch, capsys):
    def disagree(p):
        raise InternalConsistencyError(f"characterizations disagree for {p}")

    monkeypatch.setattr(cli.control, "full_report", disagree)
    g6file = tmp_path / "in.g6"
    g6file.write_text("A_\nBw\n")
    code, _ = run(["census", "--input", str(g6file), "--workers", "1"], tmp_path)
    assert code == cli.EXIT_INCONSISTENT
    assert "line 1 (A_): characterizations disagree" in capsys.readouterr().err


def test_census_past_twelve_vertices(tmp_path):
    # the path on 13 vertices: the irreducibility test has no degree cap
    g6file = tmp_path / "in.g6"
    g6file.write_text("LhCGGC@?G?_@?@\n")
    code, text = run(
        ["census", "--input", str(g6file), "--format", "csv",
         "--summary-out", str(tmp_path / "sum.json")],
        tmp_path, "out.csv",
    )
    assert code == cli.EXIT_OK
    header, line = text.splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert row["n"] == "13" and row["error"] == ""
    t = sympy.Symbol("t")
    phi = graph_char_poly(path(13))
    expected = sympy.Poly(sum(c * t**k for k, c in enumerate(phi)), t).is_irreducible
    assert row["irreducible_charpoly"] == str(expected)


def test_census_irreducible_charpoly_forces_controllable(tmp_path, monkeypatch, capsys):
    # K2 is not controllable with S = V, so an irreducible phi there is a bug;
    # the full report takes its own gcd, so the false factor reaches only the
    # irreducibility check
    monkeypatch.setattr(irreducible, "factors", lambda phi: [phi])
    g6file = tmp_path / "in.g6"
    g6file.write_text("A_\n")
    code, _ = run(["census", "--input", str(g6file), "--workers", "1"], tmp_path)
    assert code == cli.EXIT_INCONSISTENT
    assert "line 1 (A_): irreducible characteristic polynomial" in capsys.readouterr().err


def test_isocheck_isomorphic_pair_emits_q(tmp_path):
    code, text = run(["isocheck", P3, "0", P3, "2"], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["isomorphic"] is True
    assert doc["routes"] == {"rational_function": True, "cone_cospectral": True}
    assert doc["both_controllable"] is True
    assert doc["q"] == [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]


def test_isocheck_non_isomorphic(tmp_path):
    code, text = run(["isocheck", P3, "0", P3, "1"], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["isomorphic"] is False
    assert "q" not in doc
    # P3 and K3 differ in phi, so their numerators are never compared
    code, text = run(["isocheck", P3, "0", "Bw", "0"], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["routes"] == {"rational_function": False, "cone_cospectral": False}


def test_isocheck_malformed_graph6(tmp_path, capsys):
    code, text = run(["isocheck", P3, "0", "B=", "0"], tmp_path)
    assert code == cli.EXIT_INPUT and text == ""
    assert "graph6 range in 'B='" in capsys.readouterr().err


def test_isocheck_size_mismatch(tmp_path):
    code, _ = run(["isocheck", P3, "0", P5, "0"], tmp_path)
    assert code == cli.EXIT_INPUT


def test_isocheck_refuses_multi_subset_selectors(tmp_path, capsys):
    for selector in ("vertices", "all"):
        code, text = run(["isocheck", "Bg", "0", "Bg", selector], tmp_path)
        assert code == cli.EXIT_INPUT and text == ""
        assert f"selector {selector!r} gives" in capsys.readouterr().err


def test_isocheck_consistency_failure_names_both_graphs(tmp_path, monkeypatch, capsys):
    # an end and the middle of P3 are not isomorphic pairs, and their cones
    # (P4 and the star K_{1,3}) are not cospectral
    monkeypatch.setattr(cli.pairiso, "pairs_isomorphic", lambda p1, p2: True)
    code, text = run(["isocheck", "Bg", "0", "Bg", "1"], tmp_path)
    assert code == cli.EXIT_INCONSISTENT and text == ""
    err = capsys.readouterr().err
    assert "graphs Bg subset [0] and Bg subset [1]: rational-function and cone" in err


def test_isocheck_both_controllable_reads_the_full_reports(tmp_path, monkeypatch, capsys):
    # a rank verdict that says "controllable" disagrees with the pole count
    monkeypatch.setattr(cli.control, "int_rank", lambda rows: len(rows))
    code, text = run(["isocheck", P3, "1", P3, "1"], tmp_path)
    assert code == cli.EXIT_INCONSISTENT and text == ""
    err = capsys.readouterr().err
    assert f"graphs {P3} subset [1] and {P3} subset [1]: characterizations disagree" in err


def test_lti_consistency_failure_names_the_spec_file(tmp_path, monkeypatch, capsys):
    def broken(sys_):
        raise InternalConsistencyError("transfer function check failed")

    monkeypatch.setattr(cli.lti_mod, "transfer_function", broken)
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps(K2_SYSTEM))
    code, text = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_INCONSISTENT and text == ""
    assert f"system spec {spec}: transfer function check failed" in capsys.readouterr().err


def test_lti_k2_transfer(tmp_path):
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps(K2_SYSTEM))
    code, text = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["controllable"] is True and doc["observable"] is True
    # canonical form of 1/(1 - t^2): denominator lead made positive
    tf = doc["transfer_function"]
    assert tf["numerator"] == ["-1"]
    assert tf["denominator"] == ["-1", "0", "1"]


def test_lti_reports_a_generating_identity_mismatch(tmp_path, monkeypatch):
    real = cli.lti_mod.simulate

    def drifting(sys_, inputs, steps):
        states = real(sys_, inputs, steps)
        states[2][0] += 1
        return states

    monkeypatch.setattr(cli.lti_mod, "simulate", drifting)
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps(LTI_SPEC))
    code, text = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_OK
    assert json.loads(text)["generating_identity"] == {"ok": False, "first_mismatch": 2}


def test_lti_recovery_and_singular_case(tmp_path):
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({
        "a": [[0, 1], [1, 0]],
        "b": [1, 0],
        "c": [1, 0],
        "x0": [3, "5/2"],
        "inputs": [0, 0, 0, 0, 0, 0],
        "recover": {"outputs": ["3", "5/2"], "m": 0},
    }))
    code, text = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["recovered_state"]["state"] == ["3", "5/2"]
    assert doc["generating_identity"]["ok"] is True

    spec.write_text(json.dumps(SINGULAR_RECOVERY_SPEC))
    code, text = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["observable"] is False
    assert "error" in doc["recovered_state"]


def test_lti_reports_a_skipped_generating_identity(tmp_path):
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps(SKIPPED_IDENTITY_SPEC))
    code, text = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_OK
    assert json.loads(text)["generating_identity"] == {
        "skipped": "need 9 input values, got 2"
    }


def test_lti_non_integer_state_matrix(tmp_path):
    # A is scaled to integers once; 2t/(2 - t) in lowest terms
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps(RATIONAL_A_SPEC))
    code, text = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["controllable"] is True and doc["observable"] is True
    tf = doc["transfer_function"]
    assert tf["numerator"] == ["0", "-2"]
    assert tf["denominator"] == ["-2", "1"]


def test_lti_report_schema(tmp_path):
    schema = json.loads((DOCS / "lti_report.schema.json").read_text())
    spec = tmp_path / "sys.json"
    specs = (LTI_SPEC, RATIONAL_A_SPEC, SINGULAR_RECOVERY_SPEC, SKIPPED_IDENTITY_SPEC)
    for system in specs:
        spec.write_text(json.dumps(system))
        code, text = run(["lti", str(spec)], tmp_path)
        assert code == cli.EXIT_OK
        jsonschema.validate(json.loads(text), schema)


def test_lti_rejects_json_booleans(tmp_path):
    # true/false are not numbers, although Fraction(True) == 1
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({"a": [[True, 0], [0, False]], "b": [1, 0], "c": [1, 0]}))
    code, _ = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_INPUT
    spec.write_text(json.dumps({"a": [[1.0, 0], [0, 0]], "b": [1, 0], "c": [1, 0]}))
    code, _ = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_INPUT


def test_lti_zero_denominator_is_an_input_error(tmp_path, capsys):
    base = {"a": [[0, 1], [1, 0]], "b": [1, 0], "c": [1, 0]}
    cases = [
        {"a": [[0, "1/0"], [1, 0]]},
        {"b": ["1/0", 0]},
        {"c": [1, "-3/0"]},
        {"x0": [0, "1/0"]},
        {"inputs": [1, "1/0", 0, 0, 0, 0]},
        {"recover": {"outputs": ["1/0", 0], "m": 0}},
    ]
    spec = tmp_path / "sys.json"
    for case in cases:
        spec.write_text(json.dumps({**base, **case}))
        code, text = run(["lti", str(spec)], tmp_path)
        assert code == cli.EXIT_INPUT and text == ""
        assert "zero denominator" in capsys.readouterr().err


def test_lti_rejects_malformed_arrays_and_counts(tmp_path, capsys):
    base = {"a": [[0, 1], [1, 0]], "b": [1, 0], "c": [1, 0], "inputs": [0] * 6}
    cases = [
        ({"a": ["01", "10"]}, "a row must be a JSON array"),
        ({"a": "0110"}, "a must be a JSON array"),
        ({"b": "10"}, "b must be a JSON array"),
        ({"c": 1}, "c must be a JSON array"),
        ({"x0": "00"}, "x0 must be a JSON array"),
        ({"inputs": "000000"}, "inputs must be a JSON array"),
        ({"order": True}, "order must be a non-negative integer"),
        ({"order": -5}, "order must be a non-negative integer"),
        ({"order": "3"}, "order must be a non-negative integer"),
        ({"order": 2.0}, "order must be a non-negative integer"),
        ({"recover": {"outputs": "10", "m": 0}}, "recover.outputs must be"),
        ({"recover": {"m": 0}}, "malformed recovery spec: 'outputs'"),
        ({"recover": {"outputs": [1, 0], "m": -1}}, "recover.m must be"),
        ({"recover": {"outputs": [1, 0], "m": False}}, "recover.m must be"),
    ]
    spec = tmp_path / "sys.json"
    for case, message in cases:
        spec.write_text(json.dumps({**base, **case}))
        code, text = run(["lti", str(spec)], tmp_path)
        assert code == cli.EXIT_INPUT and text == "", case
        assert message in capsys.readouterr().err, case


def test_lti_bad_spec(tmp_path, capsys):
    spec = tmp_path / "sys.json"
    spec.write_text("{not json")
    code, _ = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_INPUT
    spec.write_text(json.dumps({"a": [[0]], "b": [1, 2], "c": [1]}))
    code, _ = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_INPUT
    capsys.readouterr()
    spec.write_text(json.dumps({"a": [[0, 1], [1, 0]], "c": [1, 0]}))
    code, text = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_INPUT and text == ""
    assert "malformed system spec: 'b'" in capsys.readouterr().err
