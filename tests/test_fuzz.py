"""Seeded fuzz of the CLI's outside inputs: group descriptors, `reflect
--rep` documents (the golden `rep.json` and the reflected representations of
`reflect.json`) and the golden argument lists.  Every run must end in exit
0, 2 or 3 (or 1 where a check can run), print at most one JSON document on
stdout, at most one `{"error", "kind"}` line on stderr and no traceback, and
give the same bytes when run again."""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

from mckay.cli import main
from test_golden import CASES

GOLDEN = Path(__file__).parent / "golden"
REP = json.loads((GOLDEN / "rep.json").read_text())
REFLECTIONS = json.loads((GOLDEN / "reflect.json").read_text())

NON_ASCII = ["١", "١/٢", "１", "１/2", "٣", "²", "½", "߁"]
HUGE = [10**30, -10**30, 2**63, 10**400]
ODD_VALUES = [None, True, False, 1.5, -1, 0, "", "1", "x", [], {}, [[]], {"1": 1}]


def outcome(capsys, argv: list[str], codes=(0, 2, 3)) -> tuple[int, str, str]:
    """Run the CLI twice; both runs must print the same bytes."""
    runs = []
    for _ in range(2):
        try:
            code = main(list(argv))
        except Exception as exc:  # anything escaping main is a fault
            raise AssertionError(f"{argv!r} raised {exc!r}") from exc
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1], argv
    code, out, err = runs[0]
    assert code in codes, (argv, code, err)
    assert "Traceback" not in out + err, argv
    if out and "table" not in argv:
        json.loads(out)  # one JSON document: extra data raises
    if err:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert set(json.loads(err)) == {"error", "kind"}, (argv, err)
        assert out == "", argv
    return code, out, err


def mutate_text(rng: random.Random, text: str) -> str:
    pieces = ["", " ", ":", "0", "00", "-", "+", "cyclic", "bd", "2", "T", "\t",
              str(10**30), "9" * 5000, *NON_ASCII]
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, len(text))
        op = rng.randrange(5)
        if op == 0:
            text = text[:k] + rng.choice(pieces) + text[k:]
        elif op == 1:
            text = text[:k] + rng.choice(pieces) + text[k + 1:]
        elif op == 2:
            text = text[:k] + text[k + 1:]
        elif op == 3:
            text = text[:k]
        else:
            text = text.swapcase()
    return text


def test_descriptor_fuzz(capsys):
    rng = random.Random(2208)
    bases = ["cyclic:2", "cyclic:12", "bd:2", "bd:6", "2T", "2O", "2I"]
    texts = ["", " ", "cyclic:", "bd:0", "cyclic:121", "bd:31", "cyclic:" + "9" * 5000,
             "cyclic:" + str(10**30)]
    texts += [mutate_text(rng, rng.choice(bases)) for _ in range(100)]
    codes = set()
    for text in texts:
        code, out, _ = outcome(capsys, ["group", text])
        if code == 0 and out.startswith("{"):
            label = json.loads(out)["config"]["descriptor"]
            assert outcome(capsys, ["group", label])[1] == out, text
        codes.add(code)
    assert codes == {0, 2, 3}


class Twice:
    """A field written twice in one object; a JSON reader keeps the last."""

    def __init__(self, first, last):
        self.values = (first, last)


def dump(value) -> str:
    """JSON text of a document that may hold fields written twice."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(x)}" for k, v in value.items()
                               for x in (v.values if isinstance(v, Twice) else (v,))) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value, ensure_ascii=False)


def places(doc):
    """(container, key) for every field and list slot of a JSON document,
    except the fields already written twice."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        for key in (list(node) if isinstance(node, dict) else range(len(node))):
            if not isinstance(node[key], Twice):
                out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


def mutate_rep(rng: random.Random, base=REP) -> str:
    """A representation document, rep.json by default, with one to three of:
    a field or slot dropped, duplicated, retyped, made huge, made empty or
    made of non-ASCII digits."""
    doc = copy.deepcopy(base)
    for _ in range(rng.choice([1, 1, 1, 2, 3])):
        spots = places(doc)
        if not spots:
            break
        node, key = rng.choice(spots)
        op = rng.randrange(6)
        if op == 0:
            del node[key]
        elif op == 1 and isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
        elif op == 1:
            node[key] = Twice(node[key], rng.choice([node[key], *ODD_VALUES]))
        elif op == 2:
            node[key] = copy.deepcopy(rng.choice(ODD_VALUES))
        elif op == 3:
            node[key] = rng.choice(HUGE)
        elif op == 4:
            node[key] = ""
        else:
            node[key] = rng.choice(NON_ASCII)
    return dump(doc)


def test_rep_fuzz(tmp_path, capsys):
    rng = random.Random(2209)
    path = tmp_path / "rep.json"
    codes = set()
    for _ in range(120):
        path.write_text(mutate_rep(rng), encoding="utf-8")
        vertex = rng.choice(["0", "0", "1", "1", "2", "-1", str(10**30), "١"])
        direction = rng.choice(["plus", "minus"])
        code, _, _ = outcome(capsys, ["reflect", "--rep", str(path),
                                      "--vertex", vertex, "--dir", direction])
        codes.add(code)
    assert codes == {0, 2, 3}


def test_reflections_fuzz(tmp_path, capsys):
    # Each reflected representation of reflect.json, mutated (one in five
    # left as it is), reflected again at its vertex in either direction.
    rng = random.Random(2610)
    path = tmp_path / "rep.json"
    codes = set()
    for _ in range(40):
        record = rng.choice(REFLECTIONS)
        doc = record["reflected"]
        text = json.dumps(doc) if rng.random() < 0.2 else mutate_rep(rng, doc)
        path.write_text(text, encoding="utf-8")
        argv = ["reflect", "--rep", str(path), "--vertex", str(record["vertex"]),
                "--dir", rng.choice(["plus", "minus"])]
        codes.add(outcome(capsys, argv)[0])
    assert {0, 2} <= codes


# Whole tokens only: a descriptor is swapped for another golden one, never
# edited, so no mutation reaches `molien` or `koszul-check` on cyclic:60 or
# bd:30 (8-26 s each); test_descriptor_fuzz fuzzes the descriptor text.
ARGV_TOKENS = sorted({token for argv in CASES.values() for token in argv})
ODD_TOKENS = ["", "-", "--", "x", "1.5", "0x10", "-1", "13", str(10**30),
              "-" + str(10**30), "9" * 5000, *NON_ASCII]


def mutate_argv(rng: random.Random, argv: list[str]) -> list[str]:
    """A golden argument list with one to three of: a token inserted,
    duplicated, dropped, or replaced; an inserted or replacing token is
    another golden token or an odd one (empty, huge, non-ASCII digits)."""
    argv = list(argv)
    for _ in range(rng.choice([1, 1, 2, 3])):
        k = rng.randrange(len(argv)) if argv else 0
        op = rng.randrange(4)
        if not argv or op == 0:
            argv.insert(k, rng.choice(ARGV_TOKENS + ODD_TOKENS))
        elif op == 1:
            argv.insert(k, argv[k])
        elif op == 2:
            del argv[k]
        else:
            argv[k] = rng.choice(ARGV_TOKENS + ODD_TOKENS)
    return argv


def test_golden_argv_fuzz(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("MCKAY_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2611)
    codes = set()
    names = sorted(CASES)
    for _ in range(100):
        argv = mutate_argv(rng, CASES[rng.choice(names)])
        codes.add(outcome(capsys, argv, codes=(0, 1, 2, 3))[0])
    assert {0, 2} <= codes
