"""Command-line behaviour: exit codes, JSON shape, determinism."""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mckay import cli
from mckay.bgp import QuiverRep
from mckay.cli import main
from mckay.molien import HomDims


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


@pytest.mark.parametrize("descriptor, label", [("cyclic:14", "A13~"), ("bd:9", "D11~")])
def test_graph_names_types_past_the_old_references(descriptor, label, capsys):
    code, out, _ = run(capsys, "graph", descriptor)
    assert code == 0
    graph = json.loads(out)["graph"]
    assert graph["type"] == label
    assert graph["delta"] == graph["dims"]


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

    from mckay import cli

    original = cli.molien_matrices

    def perturbed(group, table):
        # t added to E[0][0] = 1 + t^2 breaks S(t) * E(-t) = Id at entry (0, 0).
        m = original(group, table)
        e = [list(row) for row in m.E]
        e[0][0] = (1, 1, 1)
        return dataclasses.replace(m, E=tuple(tuple(row) for row in e))

    monkeypatch.setattr(cli, "molien_matrices", perturbed)
    code, out, _ = run(capsys, "koszul-check", "cyclic:2")
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["pass"] is False
    assert check["witness"] == {
        "entry": [0, 0],
        "value": "(1 + -1*t + -2*t^2 + -1*t^3 + t^4) / (1 + -2*t^2 + t^4)"}


def test_molien_commands_run_on_the_trivial_group(capsys):
    """cyclic:1's McKay graph has a loop, which neither Molien command reads:
    S = 1 / (1 - t)^2 with series 1, 2, 3, ..., and Koszul holds."""
    code, out, _ = run(capsys, "molien", "cyclic:1", "--max-degree", "4")
    assert code == 0
    molien = json.loads(out)["molien"]
    assert molien["S"] == [["(1) / (1 + -2*t + t^2)"]]
    assert molien["S_series"] == [[["1", "2", "3", "4", "5"]]]
    code, out, _ = run(capsys, "koszul-check", "cyclic:1")
    assert code == 0
    assert json.loads(out)["checks"][0]["pass"] is True
    code, _, err = run(capsys, "graph", "cyclic:1")
    assert code == 2 and "loop" in json.loads(err)["error"]


def test_heights_precondition_error(capsys):
    code, _, err = run(capsys, "heights", "cyclic:3")
    assert code == 2
    assert json.loads(err)["kind"] == "precondition"


def test_bad_descriptor_is_usage_error(capsys):
    code, _, err = run(capsys, "graph", "nonsense")
    assert code == 2
    for descriptor in ("cyclic:１２", "bd:٣"):
        code, out, err = run(capsys, "group", descriptor)
        assert (code, out) == (2, "")
        assert json.loads(err)["kind"] == "precondition"


@pytest.mark.parametrize("spellings", [(" cyclic:012", "cyclic:12", "cyclic:0012 "),
                                       ("2t", "2T", " 2T")])
def test_spellings_of_one_group_print_the_same_bytes(spellings, capsys):
    outputs = [run(capsys, "group", text) for text in spellings]
    assert [code for code, _, _ in outputs] == [0] * len(spellings)
    assert len({out for _, out, _ in outputs}) == 1
    assert json.loads(outputs[0][1])["config"]["descriptor"] == spellings[1]


def test_degree_and_window_guards(capsys):
    code, _, err = run(capsys, "molien", "cyclic:2", "--max-degree", "40")
    assert code == 2
    code, _, err = run(capsys, "heights", "cyclic:2", "--window", "9")
    assert code == 2


def test_height_cap_is_a_resource_limit(capsys):
    # cyclic:28 has 32,766 heights at window 2; the search stops at the cap.
    code, out, err = run(capsys, "heights", "cyclic:28")
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "height enumeration at window 2 visits more than 10000 partial heights",
        "kind": "resource"}


@pytest.mark.parametrize("command", ["kirillov-check", "ext-check", "lattice-check"])
def test_height_work_cap_is_a_resource_limit(command, capsys):
    # cyclic:20 has 2,046 heights at window 2 on 20 vertices; refused before
    # the first check.
    code, out, err = run(capsys, command, "cyclic:20")
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "2046 heights on 20 vertices cost 2046 x 20^3 = 16368000, more than 2000000",
        "kind": "resource"}


def test_height_work_cap_admits_cyclic_12_at_window_4(capsys):
    # 816 heights x 12^3 = 1,410,048 stays under the cap.
    code, out, _ = run(capsys, "ext-check", "cyclic:12", "--window", "4")
    assert code == 0 and len(json.loads(out)["checks"]) == 816


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


def test_lattice_check_refuses_an_invalid_height(capsys):
    code, out, err = run(capsys, "lattice-check", "cyclic:2", "--height", "0,2")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "invalid height function (0, 2)",
                               "kind": "precondition"}


@pytest.mark.parametrize("command", ["kirillov-check", "ext-check", "lattice-check",
                                     "hilbert-match"])
def test_an_empty_height_is_a_bad_literal(command, capsys):
    code, out, err = run(capsys, command, "cyclic:2", "--height=")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "bad height literal ''", "kind": "precondition"}


@pytest.mark.parametrize("command", ["kirillov-check", "ext-check", "lattice-check"])
def test_height_and_all_heights_exclude_each_other(command, capsys):
    code, out, err = run(capsys, command, "cyclic:2", "--height", "0,1", "--all-heights")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "argument --all-heights: not allowed with argument --height",
        "kind": "usage"}


@pytest.mark.parametrize("argv,message", [
    (["lattice-check", "cyclic:2", "--bogus"], "unrecognized arguments: --bogus"),
    (["heights", "cyclic:2", "--window", "two"],
     "argument --window: invalid int value: 'two'"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_are_json_on_stderr(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": message, "kind": "usage"}


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["lattice-check", "--help"]])
def test_help_and_version_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_a_height_far_from_parity_still_checks(capsys):
    # The parity height of 2I translated by 2222 lies 9999 flips away, just
    # under the cap; its classes read Hom dimensions up to degree 2222.
    from mckay.verify import context

    height = ",".join(str(p + 2222) for p in context("2I")[2].parity)
    code, out, _ = run(capsys, "lattice-check", "2I", "--height", height)
    assert code == 0
    assert [c["pass"] for c in json.loads(out)["checks"]] == [True, True]


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
        "error": "the height lies 20000 flips from the parity height, above the cap 10000",
        "kind": "resource"}


def test_flip_cap_comes_before_any_hom_dimension(capsys, monkeypatch):
    # A height far from the parity height is refused before its classes are
    # paired: a Hom dimension read at a high degree would fail here instead.
    hom_dim = HomDims.hom_dim

    def bounded(self, i, j, m):
        if m > 100:
            raise AssertionError(f"hom_dim read at degree {m}")
        return hom_dim(self, i, j, m)

    monkeypatch.setattr(HomDims, "hom_dim", bounded)
    monkeypatch.setattr(HomDims, "__call__", bounded)
    code, out, err = run(capsys, "lattice-check", "cyclic:2", "--height", "20000,20001")
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "the height lies 20000 flips from the parity height, above the cap 10000",
        "kind": "resource"}


def test_all_command_runs_the_battery(capsys):
    code, out, _ = run(capsys, "all")
    assert code == 0
    doc = json.loads(out)
    names = {c["name"] for c in doc["checks"]}
    assert len(doc["checks"]) == 9
    assert "ade-classification" in names and "twist-lattice-suite" in names
    assert all(c["pass"] for c in doc["checks"])


@pytest.mark.parametrize("option", [["--window", "3"], ["--max-degree", "9"],
                                    ["--seed", "4"]])
def test_all_refuses_values_the_battery_does_not_run_at(option, capsys, monkeypatch):
    monkeypatch.setattr(cli.verify, "run_all", lambda: pytest.fail("the battery ran"))
    code, out, err = run(capsys, "all", *option)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "all runs the battery at --window 2, --max-degree 6 and --seed 1 only",
        "kind": "precondition"}
    # The defaults spelled out are the values the battery runs at.
    monkeypatch.setattr(cli.verify, "run_all", lambda: [])
    assert run(capsys, "all", "--window", "2", "--max-degree", "6", "--seed", "1")[0] == 0


@pytest.mark.parametrize("option", [["--window", "3"], ["--max-degree", "9"], ["--seed", "4"],
                                    ["--output", "table"]])
def test_a_common_option_before_the_subcommand_is_kept(option, capsys, monkeypatch):
    """Before or after the subcommand, an option prints the same bytes; a
    subcommand's default does not overwrite it."""
    before = run(capsys, *option, "koszul-check", "cyclic:3")
    assert before == run(capsys, "koszul-check", "cyclic:3", *option)
    assert before[0] == 0 and before[1] != run(capsys, "koszul-check", "cyclic:3")[1]
    monkeypatch.setattr(cli.verify, "run_all", lambda: pytest.fail("the battery ran"))
    if option[0] != "--output":
        assert run(capsys, *option, "all")[:2] == (2, "")


REP = {
    "dims": [2, 1],
    "arrows": [
        {"from": 1, "to": 0, "index": 0, "matrix": [["1/1"], ["0/1"]]},
    ],
}


def _reflect_error(capsys, path, vertex="0", direction="plus"):
    code, out, err = run(capsys, "reflect", "--rep", str(path),
                         "--vertex", vertex, "--dir", direction)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["kind"] == "precondition"
    return error


def square_rep(d: int, arrows: int, matrix=None) -> dict:
    """Dims (d, d) with parallel arrows 1 -> 0, entries seeded in -9..9."""
    rng = random.Random(d)
    return {"dims": [d, d], "arrows": [
        {"from": 1, "to": 0, "index": i,
         "matrix": matrix if matrix is not None else
         [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]}
        for i in range(arrows)]}


def test_reflect_size_guard(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(square_rep(64, 1)))
    code, out, err = run(capsys, "reflect", "--rep", str(path), "--vertex", "0", "--dir", "plus")
    assert (code, err) == (0, "")
    # Past the cap the refusal comes before any matrix is read.
    for rep, message in ((square_rep(65, 1, "unread"), "total dimension 130"),
                         (square_rep(1, 129, "unread"),
                          "the arrows at vertex 0 have total dimension 129")):
        path.write_text(json.dumps(rep))
        code, out, err = run(capsys, "reflect", "--rep", str(path),
                             "--vertex", "0", "--dir", "plus")
        assert (code, out) == (3, "")
        error = json.loads(err)
        assert error["kind"] == "resource" and message in error["error"]


def test_reflect_caps_the_arrow_count(tmp_path, capsys):
    """Arrows between zero spaces add nothing to any vertex's width, so only
    the arrow count bounds them; the refusal comes before any matrix is
    read."""
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(square_rep(0, 128)))
    assert run(capsys, "reflect", "--rep", str(path), "--vertex", "0", "--dir", "plus")[0] == 0
    path.write_text(json.dumps(square_rep(0, 200_000, "unread")))
    code, out, err = run(capsys, "reflect", "--rep", str(path), "--vertex", "0", "--dir", "plus")
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "representation has 200000 arrows, more than 128", "kind": "resource"}


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


RAGGED = {
    "dims": [2, 2],
    "arrows": [
        {"from": 1, "to": 0, "index": 0, "matrix": [["1", "2"], ["3"]]},
        {"from": 1, "to": 0, "index": 1, "matrix": [["1", "0"], ["0", "1"]]},
    ],
}


@pytest.mark.parametrize("vertex,direction", [("0", "plus"), ("1", "minus")])
def test_reflect_ragged_matrix(tmp_path, capsys, vertex, direction):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(RAGGED))
    _reflect_error(capsys, path, vertex, direction)


NOT_EXACT = {
    "string-rows": {"dims": [2, 2], "arrows": [
        {"from": 1, "to": 0, "index": 0, "matrix": ["12", "34"]}]},
    "bool-dim": {"dims": [True, 1], "arrows": [
        {"from": 1, "to": 0, "index": 0, "matrix": [["1/1"]]}]},
    "float-entry": {"dims": [1, 1], "arrows": [
        {"from": 1, "to": 0, "index": 0, "matrix": [[1.5]]}]},
}


@pytest.mark.parametrize("case", sorted(NOT_EXACT))
def test_reflect_rejects_inexact_json(tmp_path, capsys, case):
    # Read loosely, the string row is a row of digits, `true` the dimension
    # 1 and 1.5 an exact rational: each would reflect a matrix never given.
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(NOT_EXACT[case]))
    for vertex, direction in (("0", "plus"), ("1", "minus")):
        _reflect_error(capsys, path, vertex, direction)


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


def test_lattice_check_reports_twists_that_miss_their_flips(monkeypatch, capsys):
    from test_ktheory import zero_the_twisted_row

    zero_the_twisted_row(monkeypatch)
    code, out, _ = run(capsys, "lattice-check", "cyclic:4")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks[-1]["name"] == "lattice/weyl" and checks[-1]["pass"]
    # Every source and sink of the six window-2 heights, in reporting order.
    expected = [((0, -2, -1, -1), (0, 1)), ((0, 0, -1, -1), (0, 1, 2, 3)),
                ((0, 0, -1, 1), (3, 2)), ((0, 0, 1, -1), (2, 3)),
                ((0, 0, 1, 1), (2, 3, 0, 1)), ((0, 2, 1, 1), (1, 0))]
    assert _witness_rows(checks[:-1]) == [
        {"height": list(h), "vertex": v, "error": "twist does not match flip"}
        for h, vertices in expected for v in vertices]


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


def _two_arrows(first, second) -> dict:
    return {"dims": [1, 1], "arrows": [
        {"from": 1, "to": 0, "index": first, "matrix": [[1]]},
        {"from": 1, "to": 0, "index": second, "matrix": [[2]]}]}


BAD_INDICES = {"fraction": (0, 1.5), "bool": (0, True), "duplicate": (0, 0),
               "string": (0, "1"), "gap": (0, 2), "negative": (-1, 0)}


@pytest.mark.parametrize("case", sorted(BAD_INDICES))
def test_reflect_rejects_arrow_indices_other_than_0_to_m_minus_1(tmp_path, capsys, case):
    """An arrow index is a JSON integer, and the indices are 0..m-1 in some
    order, as to_json writes them; otherwise the error names `index`."""
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_two_arrows(*BAD_INDICES[case])))
    assert "index" in _reflect_error(capsys, path)["error"]


def test_reflect_reads_arrows_in_index_order(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_two_arrows(1, 0)))
    code, out, _ = run(capsys, "reflect", "--rep", str(path), "--vertex", "0", "--dir", "plus")
    assert code == 0
    arrows = json.loads(out)["result"]["arrows"]
    assert [a["index"] for a in arrows] == [0, 1]
    assert [a["matrix"] for a in arrows] == [[["-1/2"]], [["1/1"]]]


def test_reflected_golden_documents_read_back_and_reflect(monkeypatch, capsys):
    """Each `reflected` document of tests/golden/reflect.json, with its p/q
    entries, reads back to the same document, and reflects again at a sink
    or source through `reflect --rep -` to one JSON document.  The parser
    is built once: building it is most of a run's time here."""
    records = json.loads((Path(__file__).parent / "golden" / "reflect.json").read_text())
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    assert len(records) == 420
    for record in records:
        doc = record["reflected"]
        rep = QuiverRep.from_json(doc)
        assert rep.to_json() == doc
        sinks = rep.quiver.sinks()
        vertex, direction = (sinks[0], "plus") if sinks else (rep.quiver.sources()[0], "minus")
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "reflect", "--rep", "-",
                             "--vertex", str(vertex), "--dir", direction)
        assert (code, err) == (0, "")
        assert set(json.loads(out)) == {"config", "result"}
