"""Command-line behaviour: exit codes, JSON shape, determinism."""

from __future__ import annotations

import json

from mckay.bgp import QuiverRep
from mckay.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_command(capsys):
    code, out, _ = run(capsys, "graph", "2T")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"]["type"] == "E6~"
    assert len(doc["graph"]["n"]) == 7
    assert doc["graph"]["delta"] == [1, 1, 1, 2, 2, 2, 3]


def test_group_and_chartab_commands(capsys):
    code, out, _ = run(capsys, "group", "bd:2")
    assert code == 0
    assert json.loads(out)["group"]["order"] == 8
    code, out, _ = run(capsys, "chartab", "bd:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["chartab"]["dims"] == [1, 1, 1, 1, 2]


def test_koszul_check_passes(capsys):
    code, out, _ = run(capsys, "koszul-check", "cyclic:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["pass"] is True
    assert "statement" in doc["checks"][0]


def test_heights_precondition_error(capsys):
    code, _, err = run(capsys, "heights", "cyclic:3")
    assert code == 2
    assert json.loads(err)["kind"] == "precondition"


def test_bad_descriptor_is_usage_error(capsys):
    code, _, err = run(capsys, "graph", "nonsense")
    assert code == 2


def test_degree_and_window_guards(capsys):
    code, _, err = run(capsys, "molien", "cyclic:2", "--max-degree", "40")
    assert code == 2
    code, _, err = run(capsys, "heights", "cyclic:2", "--window", "9")
    assert code == 2


def test_json_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "lattice-check", "cyclic:2", "--seed", "3")
    code2, out2, _ = run(capsys, "lattice-check", "cyclic:2", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_kirillov_and_ext_checks(capsys):
    code, out, _ = run(capsys, "kirillov-check", "cyclic:4", "--all-heights")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 6
    code, out, _ = run(capsys, "ext-check", "bd:2", "--height", "0,0,0,0,1")
    assert code == 0


def test_paths_command(capsys):
    code, out, _ = run(capsys, "paths", "cyclic:2", "--height", "0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["paths"][1][0] == 2
    assert doc["sinks"] == [0] and doc["sources"] == [1]


def test_invalid_height_literal(capsys):
    code, _, err = run(capsys, "paths", "cyclic:2", "--height", "0,2")
    assert code == 2


def test_preproj_and_hilbert_match(capsys):
    code, out, _ = run(capsys, "preproj", "cyclic:2", "--max-degree", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["graded_dims"]["dims"][0] == [[1, 0], [0, 1]]
    code, out, _ = run(capsys, "hilbert-match", "cyclic:2", "--height", "0,1")
    assert code == 0
    assert all(c["pass"] for c in json.loads(out)["checks"])


def test_reflect_round_trip_through_files(tmp_path, capsys):
    rep = {
        "dims": [2, 1],
        "arrows": [
            {"from": 1, "to": 0, "index": 0, "matrix": [["1/1"], ["0/1"]]},
            {"from": 1, "to": 0, "index": 1, "matrix": [["0/1"], ["1/1"]]},
        ],
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code, out, _ = run(capsys, "reflect", "--rep", str(path),
                       "--vertex", "0", "--dir", "plus")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["dims"] == [0, 1]
    QuiverRep.from_json(doc["result"])  # parses back


def test_table_output_mode(capsys):
    code, out, _ = run(capsys, "koszul-check", "cyclic:3", "--output", "table")
    assert code == 0
    assert out.startswith("PASS")


def test_lattice_check_single_height(capsys):
    code, out, _ = run(capsys, "lattice-check", "bd:2", "--height", "0,0,0,0,1")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert any(name.startswith("lattice/weyl") for name in names)


def test_all_command_runs_the_battery(capsys):
    code, out, _ = run(capsys, "all")
    assert code == 0
    doc = json.loads(out)
    names = {c["name"] for c in doc["checks"]}
    assert len(doc["checks"]) == 9
    assert "ade-classification" in names and "twist-lattice-suite" in names
    assert all(c["pass"] for c in doc["checks"])


REP = {
    "dims": [2, 1],
    "arrows": [
        {"from": 1, "to": 0, "index": 0, "matrix": [["1/1"], ["0/1"]]},
    ],
}


def _reflect_error(capsys, path):
    code, out, err = run(capsys, "reflect", "--rep", str(path),
                         "--vertex", "0", "--dir", "plus")
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "precondition"


def test_reflect_missing_rep_file(tmp_path, capsys):
    _reflect_error(capsys, tmp_path / "absent.json")


def test_reflect_invalid_json(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text("{not json")
    _reflect_error(capsys, path)


def test_reflect_arrow_endpoint_outside_dims(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(dict(REP, arrows=[dict(REP["arrows"][0], to=2)])))
    _reflect_error(capsys, path)


def test_reflect_non_integer_dims(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(dict(REP, dims=[2.0, 1])))
    _reflect_error(capsys, path)


def test_reflect_missing_key(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"dims": [2, 1]}))
    _reflect_error(capsys, path)


def test_ext_check_d_max_guard(capsys):
    for value in ("-1", "13"):
        code, _, err = run(capsys, "ext-check", "cyclic:2", "--d-max", value)
        assert code == 2
        assert json.loads(err)["kind"] == "precondition"


def _witness_rows(checks):
    return [row for c in checks for row in c["witness"] or []]


def _battery_rows(record, group, **match):
    return [{k: v for k, v in row.items() if k != "group"}
            for row in record["witness"]
            if row["group"] == group and all(row[k] == v for k, v in match.items())]


def test_lattice_check_shares_the_battery_path(monkeypatch, capsys):
    from mckay import verify

    monkeypatch.setattr(verify, "verify_dual_bases", lambda *args: False)
    code, out, _ = run(capsys, "lattice-check", "cyclic:2", "--all-heights")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks[-1]["name"] == "lattice/weyl" and checks[-1]["pass"]
    rows = _witness_rows(checks[:-1])
    assert rows and rows == _battery_rows(verify.check_lattice(), "cyclic:2")


def test_hilbert_match_shares_the_battery_path(monkeypatch, capsys):
    from mckay import verify

    monkeypatch.setattr(verify, "graded_dim_Bh", lambda *args: -1)
    code, out, _ = run(capsys, "hilbert-match", "cyclic:2", "--height", "0,1")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == ["hilbert", "hilbert/regraded"]
    rows = _witness_rows(checks)
    expected = _battery_rows(verify.check_hilbert_match(), "cyclic:2", height=[0, 1])
    assert rows and rows == expected
