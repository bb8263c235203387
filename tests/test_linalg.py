"""One elimination routine for both fields: Q (p = 0) and F_p."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from mckay import linalg


def test_fields_share_pivots_and_kernel_basis():
    mat = [[1, 2, 3, 4], [2, 4, 7, 9], [1, 2, 4, 5]]
    kernel = linalg.nullspace(mat)
    assert kernel == [[-2, 1, 0, 0], [-1, 0, -1, 1]]
    assert all(type(x) is int for v in kernel for x in v)
    for p in (5, 7, 101):
        assert linalg.rref(mat, p)[1] == linalg.rref(mat)[1] == [0, 2]
        assert linalg.nullspace(mat, p) == [[int(x) % p for x in v] for v in kernel]


def test_nullspace_over_q_reads_the_integer_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("nullspace built the Fraction echelon form")

    monkeypatch.setattr(linalg, "rref", refuse)
    assert linalg.nullspace([[1, 2, 3, 4], [2, 4, 7, 9], [1, 2, 4, 5]]) == \
        [[-2, 1, 0, 0], [-1, 0, -1, 1]]
    assert linalg.nullspace([[3, Fraction(1, 2)]]) == [[Fraction(-1, 6), 1]]


def test_rank_drops_mod_p():
    mat = [[1, 2], [3, 1]]  # determinant -5
    assert linalg.solve_many(mat, [[1, 1]]) == [[Fraction(1, 5), Fraction(2, 5)]]
    assert linalg.rref(mat, 5)[1] == [0]
    assert linalg.solve_many(mat, [[1, 1]], 5) is None
    assert linalg.solve_many(mat, [[1, 3]], 5) == [[1, 0]]
    assert linalg.nullspace(mat, 5) == [[3, 1]]
    assert linalg.inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert linalg.inverse([[2, 0], [0, 1]]) == [[Fraction(1, 2), 0], [0, 1]]


def test_q_elimination_does_no_fraction_arithmetic(monkeypatch):
    mat = [[Fraction(1, 2), Fraction(-2, 3), 4],
           [Fraction(3, 5), 1, Fraction(7, 9)],
           [Fraction(11, 10), Fraction(1, 3), Fraction(43, 9)]]
    rhs = [1, Fraction(-1, 4), Fraction(3, 4)]
    expected = [linalg.rref(mat), linalg.nullspace(mat), linalg.solve_many(mat, [rhs]),
                linalg.inverse(mat[:2] + [[0, 0, 1]])]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside the elimination")

    for op in ("add", "sub", "mul", "truediv"):
        monkeypatch.setattr(Fraction, f"__{op}__", refuse)
        monkeypatch.setattr(Fraction, f"__r{op}__", refuse)
    got = [linalg.rref(mat), linalg.nullspace(mat), linalg.solve_many(mat, [rhs]),
           linalg.inverse(mat[:2] + [[0, 0, 1]])]
    monkeypatch.undo()
    assert got == expected
    assert expected[1] and expected[2] is not None and expected[3] is not None

_GOLDEN_RREF = Path(__file__).parent / "golden" / "rref.json"


def _golden_entry(rng: random.Random, kind: str):
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "small":
        return Fraction(rng.randint(-4, 4), rng.randint(1, 6))
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))


def _golden_matrix(rng: random.Random) -> list[list]:
    """A seeded rational matrix: wide or tall, with integer, small or large
    fraction entries, and now and then dependent rows, a zero row or a zero
    column."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    kind = rng.choice(("int", "small", "large"))
    mat = [[_golden_entry(rng, kind) if rng.random() < 0.75 else 0
            for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.4:
        a, b = rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        mat[rng.randrange(rows)] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
    if rng.random() < 0.2:
        mat[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.2:
        c = rng.randrange(cols)
        for row in mat:
            row[c] = 0
    return mat


def _q(rows) -> list:
    return [f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in rows]


def _golden_rref_records() -> list[dict]:
    """rref, nullspace, solve_many and inverse over Q on 300 seeded matrices and
    the empty one; rref and nullspace mod 5 and 7 on the integer ones."""
    rng = random.Random(90210)
    records = []
    for k in range(301):
        mat = _golden_matrix(rng) if k else []
        cols = len(mat[0]) if mat else 0
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
        rhs = [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in mat]
        if rng.random() < 0.3 and rhs:
            rhs[rng.randrange(len(rhs))] += 1
        red, pivots = linalg.rref(mat)
        sols = linalg.solve_many(mat, [rhs])
        entry = {"mat": [_q(row) for row in mat], "rhs": _q(rhs),
                 "rref": [_q(row) for row in red], "pivots": pivots,
                 "nullspace": [_q(v) for v in linalg.nullspace(mat)],
                 "solve": None if sols is None else _q(sols[0])}
        if len(mat) == cols:
            inv = linalg.inverse(mat)
            entry["inverse"] = None if inv is None else [_q(row) for row in inv]
        if all(isinstance(v, int) for row in mat for v in row):
            entry["mod"] = {str(p): [*linalg.rref(mat, p), linalg.nullspace(mat, p)]
                            for p in (5, 7)}
        records.append(entry)
    return records


def test_rref_matches_golden_record():
    assert _golden_rref_records() == json.loads(_GOLDEN_RREF.read_text())


def test_rank_counts_the_rref_pivots():
    mats = [[[Fraction(x) for x in row] for row in r["mat"]]
            for r in json.loads(_GOLDEN_RREF.read_text())]
    assert len(mats) == 301
    for mat in mats:
        assert linalg.rank(mat) == len(linalg.rref(mat)[1])


def test_nullspace_basis_is_unit_on_the_free_columns():
    """Every kernel basis vector is 1 at its own free column and 0 at the
    other free columns, over Q and over F_p for the integer matrices, on the
    golden matrices, as the module documents."""
    checked = 0
    for r in json.loads(_GOLDEN_RREF.read_text()):
        mat = [[Fraction(x) for x in row] for row in r["mat"]]
        cols = len(mat[0]) if mat else 0
        fields = [0]
        if all(x.denominator == 1 for row in mat for x in row):
            mat = [[int(x) for x in row] for row in mat]
            fields += [5, 7, 13]
        for p in fields:
            pivots = linalg.rref(mat, p)[1]
            free = [c for c in range(cols) if c not in pivots]
            basis = linalg.nullspace(mat, p)
            assert len(basis) == len(free)
            for f, vec in zip(free, basis):
                assert [vec[c] for c in free] == [int(c == f) for c in free]
                checked += 1
    assert checked > 300


def _read_entry(text: str, as_int: bool):
    x = Fraction(text)
    return int(x) if as_int and x.denominator == 1 else x


def test_q_kernels_and_solutions_are_int_exactly_where_integral():
    """On the golden matrices, read with every entry a Fraction and with the
    integral ones as ints, nullspace and solve_many give the recorded values,
    each entry an int exactly when it is integral and a Fraction otherwise."""
    entries = 0
    for r in json.loads(_GOLDEN_RREF.read_text())[1:]:
        for as_int in (False, True):
            mat = [[_read_entry(x, as_int) for x in row] for row in r["mat"]]
            rhs = [_read_entry(x, as_int) for x in r["rhs"]]
            kernel = linalg.nullspace(mat)
            sols = linalg.solve_many(mat, [rhs])
            assert [_q(v) for v in kernel] == r["nullspace"]
            assert (None if sols is None else _q(sols[0])) == r["solve"]
            for x in [x for v in kernel + (sols or []) for x in v]:
                assert type(x) is (int if Fraction(x).denominator == 1 else Fraction)
                entries += 1
    assert entries > 1000


def test_integer_rows_clear_one_common_denominator():
    den, ints = linalg.integer_rows([[Fraction(1, 2), 3], [Fraction(-2, 3), 0]])
    assert (den, ints) == (6, [[3, 18], [-4, 0]])
    assert linalg.integer_rows([]) == (1, [])


if __name__ == "__main__":
    lines = [json.dumps(r, sort_keys=True) for r in _golden_rref_records()]
    _GOLDEN_RREF.write_text("[\n" + ",\n".join(lines) + "\n]\n")
