"""Golden corpus: byte-exact stdout and exit code of CLI commands.

Each case runs `main()` in-process with the disk cache off and compares
against `tests/golden/<case>.out` and the exit code recorded in
`tests/golden/exit_codes.json`; `all.out` holds the whole acceptance
battery.  Regenerate (only when an output change is
intended) with `python tests/test_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
REP = str(GOLDEN / "rep.json")

DESCRIPTORS = ("cyclic:2", "cyclic:4", "bd:2", "2T")
COMMANDS = ("group", "chartab", "graph", "molien", "koszul-check", "heights",
            "kirillov-check", "ext-check", "preproj", "hilbert-match",
            "lattice-check")
SAMPLE_HEIGHTS = {"cyclic:2": "0,1", "cyclic:4": "0,0,1,1",
                  "bd:2": "0,0,0,0,1", "2T": "0,0,0,1,1,1,0"}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for d in DESCRIPTORS:
        for c in COMMANDS:
            cases[f"{c}-{d}"] = [c, d]
        cases[f"paths-{d}"] = ["paths", d, "--height", SAMPLE_HEIGHTS[d]]
        for c in ("kirillov-check", "lattice-check"):
            cases[f"{c}-{d}-all-heights"] = [c, d, "--all-heights"]
    for d in ("cyclic:2", "bd:2"):
        for c in ("paths", "hilbert-match", "lattice-check", "ext-check"):
            cases[f"{c}-{d}-height"] = [c, d, "--height", SAMPLE_HEIGHTS[d]]
    # Conductor 8 with half-integer generators (2O) and conductor 20 (2I).
    for d in ("2O", "2I"):
        for c in ("group", "chartab", "graph", "molien", "koszul-check",
                  "lattice-check"):
            cases[f"{c}-{d}"] = [c, d]
    cases["lattice-check-cyclic:2-table"] = ["lattice-check", "cyclic:2",
                                             "--output", "table"]
    cases["reflect-plus"] = ["reflect", "--rep", REP, "--vertex", "0", "--dir", "plus"]
    cases["reflect-minus"] = ["reflect", "--rep", REP, "--vertex", "1", "--dir", "minus"]
    return {name.replace(":", "_"): argv for name, argv in cases.items()}


CASES = _cases()


def _run(argv) -> tuple[int, str]:
    from mckay.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch):
    monkeypatch.delenv("MCKAY_CACHE_DIR", raising=False)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = _run(CASES[name])
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_all_matches_golden(monkeypatch):
    """The whole acceptance battery, byte for byte."""
    monkeypatch.delenv("MCKAY_CACHE_DIR", raising=False)
    code, out = _run(["all"])
    assert code == 0
    assert out == (GOLDEN / "all.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    os.environ.pop("MCKAY_CACHE_DIR", None)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    (GOLDEN / "all.out").write_text(_run(["all"])[1], encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
