"""Command-line behaviour: exit codes, JSON shape, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_koszul_check_reports_a_perturbed_entry(monkeypatch, capsys):
    import dataclasses
    from fractions import Fraction

    from mckay import cli
    from mckay.exactnum import Poly

    original = cli.molien_matrices

    def perturbed(group, table):
        # t/3 added to E[0][0] breaks S(t) * E(-t) = Id at entry (0, 0).
        m = original(group, table)
        e = [list(row) for row in m.E]
        e[0][0] = e[0][0] + Poly.rational([0, Fraction(1, 3)])
        return dataclasses.replace(m, E=tuple(tuple(row) for row in e))

    monkeypatch.setattr(cli, "molien_matrices", perturbed)
    code, out, _ = run(capsys, "koszul-check", "cyclic:2")
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["pass"] is False
    assert check["witness"] == {
        "entry": [0, 0],
        "value": "(1 + -1/3*t + -2*t^2 + -1/3*t^3 + t^4) / (1 + -2*t^2 + t^4)"}


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


def test_hilbert_match_at_the_top_degree(capsys):
    # Degree 12 is the largest --max-degree the CLI accepts.
    code, out, err = run(capsys, "hilbert-match", "bd:2", "--max-degree", "12")
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [("hilbert", True)]


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


def test_flip_path_cap_is_a_resource_limit(capsys):
    code, out, err = run(capsys, "lattice-check", "cyclic:2", "--height", "20000,20001")
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "the flip path has 20000 flips, above the cap 10000", "kind": "resource"}


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


def _file_as_cache_dir(tmp_path, entry):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    return blocker


def _directory_at_entry(tmp_path, entry):
    os.makedirs(entry)
    return entry.parent


def _entry_with_scalar_values(tmp_path, entry):
    from mckay.chartab import character_table
    from mckay.groups import build_group, parse_descriptor

    character_table(build_group(parse_descriptor("cyclic:2")), cache_dir=str(entry.parent))
    entry.write_text(json.dumps(dict(json.loads(entry.read_text()), values=5)))
    return entry.parent


def _entry_with_negative_index(tmp_path, entry):
    # Index -1 at conductor 1 names the last (only) coefficient slot; read
    # as a slot counted from the end it would load the same table.
    from mckay.chartab import character_table
    from mckay.groups import build_group, parse_descriptor

    character_table(build_group(parse_descriptor("cyclic:2")), cache_dir=str(entry.parent))
    data = json.loads(entry.read_text())
    assert data["values"][0][0] == {"conductor": 1, "coeffs": {"0": "1/1"}}
    data["values"][0][0]["coeffs"] = {"-1": "1/1"}
    entry.write_text(json.dumps(data))
    return entry.parent


@pytest.mark.parametrize("spoil", [_file_as_cache_dir, _directory_at_entry,
                                   _entry_with_scalar_values,
                                   _entry_with_negative_index])
def test_unusable_cache_still_prints_the_table(spoil, tmp_path, monkeypatch, capsys):
    from mckay import __version__
    from mckay.chartab import CACHE_ENV, _cache_path

    monkeypatch.delenv(CACHE_ENV, raising=False)
    code, plain, _ = run(capsys, "chartab", "cyclic:2")
    assert code == 0
    entry = Path(_cache_path(str(tmp_path / "cache"), "cyclic:2", 1, __version__))
    cache_dir = spoil(tmp_path, entry)
    code, out, err = run(capsys, "chartab", "cyclic:2", "--cache-dir", str(cache_dir))
    assert code == 0
    assert "Traceback" not in err
    assert out == plain
    if cache_dir.is_dir():
        assert os.listdir(cache_dir) == [entry.name]  # no temp file left
    if entry.is_file():  # a miss: the entry was recomputed and rewritten
        assert json.loads(entry.read_text())["values"] == json.loads(plain)["chartab"]["values"]


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "MCKAY_CACHE_DIR"}
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run([sys.executable, "-m", "mckay", "group", "cyclic:2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "tests" / "golden" / "group-cyclic_2.out").read_text()
