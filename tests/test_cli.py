import json
import pathlib

import jsonschema
import pytest

from ctrlgraph import cli
from ctrlgraph.graphs import complete, emit_graph6, path

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"

P3 = emit_graph6(path(3))
P5 = emit_graph6(path(5))


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


def test_analyze_bad_inputs(tmp_path):
    code, _ = run(["analyze", "B="], tmp_path)  # char below graph6 range
    assert code == cli.EXIT_INPUT
    code, _ = run(["analyze", P3, "--subset", "0,7"], tmp_path)
    assert code == cli.EXIT_INPUT
    code, _ = run(["analyze", emit_graph6(path(17)), "--subset", "all"], tmp_path)
    assert code == cli.EXIT_GUARD


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


def test_isocheck_size_mismatch(tmp_path):
    code, _ = run(["isocheck", P3, "0", P5, "0"], tmp_path)
    assert code == cli.EXIT_INPUT


def test_lti_k2_transfer(tmp_path):
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({
        "a": [[0, 1], [1, 0]],
        "b": [1, 0],
        "c": [1, 0],
    }))
    code, text = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["controllable"] is True and doc["observable"] is True
    # canonical form of 1/(1 - t^2): denominator lead made positive
    tf = doc["transfer_function"]
    assert tf["numerator"] == ["-1"]
    assert tf["denominator"] == ["-1", "0", "1"]


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

    spec.write_text(json.dumps({
        "a": [[1, 0], [0, 1]],
        "b": [1, 0],
        "c": [1, 0],
        "recover": {"outputs": [1, 1], "m": 0},
    }))
    code, text = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["observable"] is False
    assert "error" in doc["recovered_state"]


def test_lti_non_integer_state_matrix(tmp_path):
    # the transfer function needs an integer A; the rest of the report stays
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({
        "a": [["1/2", 0], [1, 0]],
        "b": [1, 0],
        "c": [0, 1],
    }))
    code, text = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_OK
    doc = json.loads(text)
    assert doc["controllable"] is True and doc["observable"] is True
    assert "error" in doc["transfer_function"]


def test_lti_bad_spec(tmp_path):
    spec = tmp_path / "sys.json"
    spec.write_text("{not json")
    code, _ = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_INPUT
    spec.write_text(json.dumps({"a": [[0]], "b": [1, 2], "c": [1]}))
    code, _ = run(["lti", str(spec)], tmp_path)
    assert code == cli.EXIT_INPUT
