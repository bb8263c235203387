"""Character tables: class constants, the modular computation, the exact
lift, canonical ordering, caching."""

from __future__ import annotations

import dataclasses
import json
import os
import random
from fractions import Fraction

import pytest

from mckay import chartab, linalg
from mckay.chartab import _eigenvalues as eigenvalues
from mckay.chartab import (character_table, class_constants, dixon_character_table,
                           dixon_prime, verify_table, CharacterTable)
from mckay.errors import ConsistencyError
from mckay.exactnum import CycloNum
from mckay.groups import build_group, parse_descriptor
from mckay.molien import molien_matrices
from mckay.verify import ADE_EXPECTATIONS


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


def _conjugated(mat, rng, p):
    """mat under a run of seeded elementary similarities over F_p: row i plus
    c row j, then column j minus c column i."""
    n = len(mat)
    out = [row[:] for row in mat]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(1, p)
        out[i] = [(x + c * y) % p for x, y in zip(out[i], out[j])]
        for row in out:
            row[j] = (row[j] - c * row[i]) % p
    return out


def _seeded_matrices():
    """Seeded matrices mod 5, 13, 61 and 73 of sizes 1 to 12: uniform ones,
    singular ones (the last row the sum of the others, or zero), and a
    Jordan block of size n - 1 plus a second eigenvalue, conjugated so it is
    dense and, from n = 3, not diagonalizable.  Mod 5, sizes 5 to 12 have
    n >= p."""
    rng = random.Random(1967)
    for p in (5, 13, 61, 73):
        for n in range(1, 13):
            full = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            singular = full[:-1] + [[sum(col) % p for col in zip(*full[:-1])] or [0]]
            lam, mu = rng.randrange(p), rng.randrange(p)
            jordan = [[(lam if i < n - 1 else mu) if i == j else int(j == i + 1 < n - 1)
                       for j in range(n)] for i in range(n)]
            yield from ((full, p), (singular, p), (_conjugated(jordan, rng, p), p))


def test_eigenvalues_match_the_full_scan(monkeypatch):
    """The characteristic-polynomial roots equal the eigenvalues found by a
    nullspace at every element of F_p, on every restricted class matrix the
    splitting meets for the 20 battery groups at both Dixon primes, and on
    seeded matrices: singular, not diagonalizable, and with n >= p."""
    seeded = [(mat, p, eigenvalues(mat, p)) for mat, p in _seeded_matrices()]
    assert any(len(mat) >= p for mat, p, _ in seeded)
    recorded = []

    def recording(mat, p):
        roots = eigenvalues(mat, p)
        recorded.append((mat, p, roots))
        return roots

    monkeypatch.setattr(chartab, "_eigenvalues", recording)
    for label, _ in ADE_EXPECTATIONS:
        g = group(label)
        first = dixon_character_table(g)
        dixon_character_table(g, prime=dixon_prime(g.exponent(), g.order, after=first.prime))
    assert len({p for _, p, _ in recorded}) > 10
    for mat, p, roots in seeded + recorded:
        n = len(mat)
        scan = [lam for lam in range(p) if linalg.nullspace(
            [[(mat[i][j] - (lam if i == j else 0)) % p for j in range(n)]
             for i in range(n)], p)]
        assert roots == scan


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


def _tampered(label, **changes):
    """The canonical table of the group with some fields replaced."""
    g = group(label)
    return dataclasses.replace(dixon_character_table(g), **changes), g


def _with_value(t, i, c, value):
    rows = [list(row) for row in t.values]
    rows[i][c] = value
    return tuple(map(tuple, rows))


def test_verify_table_rejects_wrong_square_sum():
    t, g = _tampered("bd:2", dims=(1, 1, 1, 1, 1))
    with pytest.raises(ConsistencyError, match="sum of squared dimensions"):
        verify_table(t, g)


def test_verify_table_rejects_wrong_identity_column():
    # The square sum still reads 8; row 3 is linear but claims dimension 2.
    t, g = _tampered("bd:2", dims=(1, 1, 1, 2, 1))
    with pytest.raises(ConsistencyError, match="character at identity"):
        verify_table(t, g)


def test_verify_table_rejects_non_integral_value():
    t = dixon_character_table(group("2T"))
    half = CycloNum.from_rational(Fraction(1, 2))
    t, g = _tampered("2T", values=_with_value(t, 1, 1, half))
    with pytest.raises(ConsistencyError, match="algebraic integer"):
        verify_table(t, g)


@pytest.mark.parametrize("label", ["bd:2", "2T"])
def test_verify_table_rejects_swapped_entries(label):
    t = dixon_character_table(group(label))
    row = list(t.values[1])
    a, b = next((a, b) for a in range(1, len(row)) for b in range(a + 1, len(row))
                if row[a] != row[b])
    row[a], row[b] = row[b], row[a]
    t, g = _tampered(label, values=(t.values[0], tuple(row)) + t.values[2:])
    with pytest.raises(ConsistencyError, match="row orthogonality"):
        verify_table(t, g)


def test_verify_table_rejects_powers_in_the_wrong_columns():
    # Swapping the columns of g and g^2 in every row keeps both
    # orthogonality relations; sigma_2(chi(g)) = chi(g^2) does not hold.
    t = dixon_character_table(group("cyclic:5"))
    values = tuple((row[0], row[2], row[1]) + row[3:] for row in t.values)
    t, g = _tampered("cyclic:5", values=values)
    with pytest.raises(ConsistencyError, match="Galois action"):
        verify_table(t, g)


def test_verify_table_rejects_an_exponent_not_the_groups():
    # At N = 6 every value of cyclic:3 still lies in Z[z_N] and both
    # relations hold, but the Galois check would run over the wrong units.
    t, g = _tampered("cyclic:3", exponent=6)
    with pytest.raises(ConsistencyError, match="exponent != the group's"):
        verify_table(t, g)


# The check of verify_table that refuses each table below.
CUBE_ROOT_REFUSALS = {"cyclic:3": "row orthogonality", "2T": "row orthogonality",
                      "bd:2": "algebraic integer"}


@pytest.mark.parametrize("label", list(CUBE_ROOT_REFUSALS))
def test_a_value_off_by_a_cube_root_of_unity_is_refused(label):
    """The table check refuses the value, and the Molien average of the
    unchecked table fails one of its own identities."""
    t = dixon_character_table(group(label))
    bad = _with_value(t, 1, 1, t.values[1][1] * CycloNum.root_of_unity(3))
    t, g = _tampered(label, values=bad)
    with pytest.raises(ConsistencyError, match=CUBE_ROOT_REFUSALS[label]):
        verify_table(t, g)
    with pytest.raises(ConsistencyError):
        molien_matrices(g, t)


def test_verify_table_rejects_changed_class_size():
    # Split the size-2 class 1 of bd:2 into two classes of size 1 with the
    # same column: every row sum is unchanged, so row orthogonality holds,
    # and the column relation at the split class fails.
    t = dixon_character_table(group("bd:2"))
    values = tuple(row[:2] + row[1:] for row in t.values)
    t, g = _tampered("bd:2", values=values, class_sizes=(1, 1, 1, 2, 1, 2))
    with pytest.raises(ConsistencyError, match="column orthogonality"):
        verify_table(t, g)


def test_verify_table_rejects_changed_class_size_in_place():
    # A class size alone cannot change with the rows still orthogonal: the
    # sizes are determined by the table, so the row relation fails first.
    t, g = _tampered("bd:2", class_sizes=(1, 2, 2, 2, 1))
    with pytest.raises(ConsistencyError, match="row orthogonality"):
        verify_table(t, g)


def test_verify_table_rejects_wrong_defining_traces():
    t = dixon_character_table(group("2T"))
    t, g = _tampered("2T", defining_values=t.values[1])
    with pytest.raises(ConsistencyError, match="defining character"):
        verify_table(t, g)
