"""Seeded fuzz of the CLI's two outside inputs: group descriptors and
`reflect --rep` documents.  Every run must end in exit 0, 2 or 3, print at
most one `{"error", "kind"}` line on stderr and no traceback, and give the
same bytes when run again."""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

from mckay.cli import main

REP = json.loads((Path(__file__).parent / "golden" / "rep.json").read_text())

NON_ASCII = ["١", "١/٢", "１", "１/2", "٣", "²", "½", "߁"]
HUGE = [10**30, -10**30, 2**63, 10**400]
ODD_VALUES = [None, True, False, 1.5, -1, 0, "", "1", "x", [], {}, [[]], {"1": 1}]


def outcome(capsys, argv: list[str]) -> tuple[int, str, str]:
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
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err, argv
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


def mutate_rep(rng: random.Random) -> str:
    """rep.json with one to three of: a field or slot dropped, duplicated,
    retyped, made huge, made empty or made of non-ASCII digits."""
    doc = copy.deepcopy(REP)
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
