"""Character tables: class constants, the modular computation, the exact
lift, canonical ordering, caching."""

from __future__ import annotations

import json
import os

import pytest

from mckay.chartab import (character_table, class_constants, dixon_character_table,
                           dixon_prime, verify_table, CharacterTable)
from mckay.exactnum import CycloNum
from mckay.groups import build_group, parse_descriptor


def group(label):
    return build_group(parse_descriptor(label))


def table(label, **kw):
    return dixon_character_table(group(label), **kw)


def test_class_constants_identity_row():
    g = group("bd:2")
    a = class_constants(g)
    k = g.conjugacy_classes().count
    for j in range(k):
        for l in range(k):
            assert a[0][j][l] == (1 if j == l else 0)


def test_class_constants_order_two():
    g = group("cyclic:2")
    a = class_constants(g)
    # (-I)(-I) = I: the nontrivial class squares to the identity class.
    assert a[1][1][0] == 1
    assert a[1][1][1] == 0


def test_class_constants_against_triple_loop_oracle():
    g = group("bd:2")
    data = g.conjugacy_classes()
    k = data.count
    oracle = [[[0] * k for _ in range(k)] for _ in range(k)]
    for x in range(g.order):
        for y in range(g.order):
            z = g.mul(x, y)
            if z in data.reps:
                oracle[data.class_of[x]][data.class_of[y]][data.reps.index(z)] += 1
    assert class_constants(g) == oracle


def test_dixon_prime_selection():
    assert dixon_prime(2, 2) == 3          # 3 = 1 mod 2 and 3^2 > 4*2
    assert dixon_prime(4, 8) == 13
    assert dixon_prime(60, 120) == 61
    assert dixon_prime(60, 120, after=61) == 181


def test_cyclic2_table():
    t = table("cyclic:2")
    assert t.dims == (1, 1)
    assert [[v.as_rational() for v in row] for row in t.values] == [[1, 1], [1, -1]]


def test_quaternion_table():
    t = table("bd:2")
    assert t.dims == (1, 1, 1, 1, 2)
    g = group("bd:2")
    minus_cls = g.conjugacy_classes().class_of[g.minus_identity]
    assert t.values[4][minus_cls] == -2
    assert t.defining_index == 4


def test_binary_icosahedral_dims():
    t = table("2I")
    assert t.dims == (1, 2, 2, 3, 3, 4, 4, 5, 6)
    assert sum(d * d for d in t.dims) == 120


@pytest.mark.parametrize("label", ["cyclic:3", "cyclic:4", "bd:1", "bd:3", "2T"])
def test_orthogonality_and_traces(label):
    g = group(label)
    t = dixon_character_table(g)
    verify_table(t, g)  # raises on any defect
    data = g.conjugacy_classes()
    traces = tuple(g.elements[r].trace().reduced() for r in data.reps)
    assert t.defining_values == traces


def test_defining_index_absent_for_reducible_action():
    # The 2-dim matrix action of a cyclic group splits into two characters.
    assert table("cyclic:4").defining_index is None
    assert table("bd:1").defining_index is None
    assert table("2T").defining_index is not None


@pytest.mark.parametrize("label", ["cyclic:6", "bd:2", "2T", "2O"])
def test_prime_independence(label):
    g = group(label)
    first = dixon_character_table(g)
    second_prime = dixon_prime(g.exponent(), g.order, after=first.prime)
    second = dixon_character_table(g, prime=second_prime)
    assert first.dims == second.dims
    assert first.values == second.values


def test_seed_changes_nothing():
    a = table("bd:3", seed=1)
    b = table("bd:3", seed=99)
    assert a.values == b.values


def test_character_values_are_algebraic_integers():
    t = table("2I")
    for row in t.values:
        for v in row:
            _, coeffs = v.canonical()
            assert all(c.denominator == 1 for c in coeffs)


def test_trivial_character_is_first_and_rows_sorted():
    t = table("2O")
    assert all(v == 1 for v in t.values[0])
    assert list(t.dims) == sorted(t.dims)


def test_json_round_trip_and_cache(tmp_path):
    g = group("bd:2")
    t = character_table(g, cache_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1 and files[0].suffix == ".json"
    again = character_table(g, cache_dir=str(tmp_path))
    assert again.values == t.values
    parsed = CharacterTable.from_json(json.loads(files[0].read_text()))
    assert parsed.values == t.values
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def test_cache_ignores_corrupt_file(tmp_path):
    g = group("cyclic:3")
    t = character_table(g, cache_dir=str(tmp_path))
    path = next(tmp_path.iterdir())
    path.write_text("{not json")
    again = character_table(g, cache_dir=str(tmp_path))
    assert again.values == t.values


def test_cache_keeps_one_entry_per_seed(tmp_path, monkeypatch):
    from mckay import chartab

    g = group("bd:2")
    tables = {seed: character_table(g, seed=seed, cache_dir=str(tmp_path))
              for seed in (1, 2)}
    assert len(list(tmp_path.iterdir())) == 2

    def no_recompute(*args, **kwargs):
        raise AssertionError("cache entry was not reused")

    monkeypatch.setattr(chartab, "dixon_character_table", no_recompute)
    for seed, t in tables.items():
        again = character_table(g, seed=seed, cache_dir=str(tmp_path))
        assert again.seed == seed and again.values == t.values


def test_value_json_wire_shape():
    t = table("cyclic:4")
    blob = t.values[1][1].to_json()
    assert set(blob) == {"conductor", "coeffs"}
    assert all(isinstance(k, str) and "/" in v for k, v in blob["coeffs"].items())
    assert CycloNum.from_json(blob) == t.values[1][1]
