"""Group construction: orders, closure, conjugacy classes, -I membership."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from mckay import groups
from mckay.errors import ConsistencyError, PreconditionError
from mckay.exactnum import CycloNum
from mckay.groups import Mat2, build_group, parse_descriptor
from mckay.verify import ADE_EXPECTATIONS

ALL_LABELS = (["cyclic:%d" % n for n in range(1, 9)]
              + ["bd:%d" % n for n in range(1, 5)]
              + ["2T", "2O", "2I"])


def group(label):
    return build_group(parse_descriptor(label))


def test_descriptor_parsing():
    assert parse_descriptor("cyclic:4").order == 4
    assert parse_descriptor("bd:2").order == 8
    assert parse_descriptor("2T").order == 24
    assert parse_descriptor("2o").order == 48
    assert parse_descriptor("2I").order == 120
    for bad in ("cyclic", "cyclic:x", "bd:0", "foo", "3T", "cyclic:１２", "bd:٣",
                "cyclic:+12", "bd: 3", "cyclic:" + "9" * 5000):
        with pytest.raises(PreconditionError):
            parse_descriptor(bad)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_expected_orders_and_determinants(label):
    g = group(label)
    assert g.order == g.descriptor.order
    one = g.elements[0]
    assert one * one == one
    for m in g.elements:
        assert m.det() == 1


@pytest.mark.parametrize("label", ["cyclic:5", "bd:2", "2T"])
def test_closure_and_inverses(label):
    g = group(label)
    rng = random.Random(5)
    for _ in range(30):
        i, j = rng.randrange(g.order), rng.randrange(g.order)
        assert 0 <= g.mul(i, j) < g.order
    for i in range(g.order):
        assert g.inverse[g.inverse[i]] == i
        assert g.mul(i, g.inverse[i]) == 0


def test_cyclic_four_is_diagonal_powers():
    g = group("cyclic:4")
    diag_entries = set()
    for m in g.elements:
        assert m.b == 0 and m.c == 0
        assert m.a * m.d == 1
        diag_entries.add(m.a)
    assert diag_entries == {CycloNum.root_of_unity(4, k) for k in range(4)}


def test_quaternion_group_structure():
    g = group("bd:2")
    assert g.order == 8
    order4 = [i for i in range(8) if g.element_order(i) == 4]
    assert len(order4) == 6


def test_minus_identity_membership():
    assert not group("cyclic:3").contains_minus_identity()
    assert group("cyclic:2").contains_minus_identity()
    assert group("cyclic:6").contains_minus_identity()
    assert group("2T").contains_minus_identity()
    assert group("bd:1").contains_minus_identity()


@pytest.mark.parametrize("label,expected", [
    ("cyclic:4", 4), ("bd:2", 5), ("2T", 7), ("2O", 8), ("2I", 9)])
def test_class_counts(label, expected):
    assert group(label).conjugacy_classes().count == expected


def test_quaternion_class_sizes_against_full_orbit_oracle():
    g = group("bd:2")
    data = g.conjugacy_classes()
    assert sorted(data.sizes) == [1, 1, 2, 2, 2]
    # Oracle: conjugate by every group element, not just the generators.
    for cls in data.classes:
        rep = cls[0]
        orbit = {g.mul(g.inverse[x], g.mul(rep, x)) for x in range(g.order)}
        assert orbit == set(cls)


@pytest.mark.parametrize("label", ["cyclic:6", "bd:3", "2T", "2I"])
def test_class_equation_and_exponent(label):
    g = group(label)
    data = g.conjugacy_classes()
    assert sum(data.sizes) == g.order
    assert data.classes[0] == (0,)
    for size in data.sizes:
        assert g.order % size == 0
    for c, rep in enumerate(data.reps):
        assert g.centralizer_orders()[c] * data.sizes[c] == g.order
    assert g.order % g.exponent() == 0 or g.exponent() % 2 == 0
    # lcm of element orders divides |G|
    lcm = 1
    for i in range(g.order):
        o = g.element_order(i)
        lcm = lcm * o // gcd(lcm, o)
    assert lcm == g.exponent()
    assert g.order % lcm == 0


def test_binary_icosahedral_class_data():
    g = group("2I")
    data = g.conjugacy_classes()
    assert g.order == 120
    assert data.count == 9
    assert sorted(g.element_order(r) for r in data.reps) == [1, 2, 3, 4, 5, 5, 6, 10, 10]
    assert g.exponent() == 60


def test_traces_are_computed_once(monkeypatch):
    g = group("2I")
    first = g.traces()
    assert first[0] == 2

    def refuse(self):
        raise AssertionError("traces() reduced a trace again")

    monkeypatch.setattr(CycloNum, "reduced", refuse)
    assert g.traces() == first


def test_closure_multiplies_by_no_zero(monkeypatch):
    """The bd generators are monomial, so about half the terms of each 2x2
    product vanish; the closure and its determinant check skip them."""
    multiply, zeros = CycloNum.__mul__, []

    def spy(x, y):
        zeros.extend(v for v in (x, y) if isinstance(v, CycloNum) and not v)
        return multiply(x, y)

    monkeypatch.setattr(CycloNum, "__mul__", spy)
    assert build_group.__wrapped__(parse_descriptor("bd:6")).order == 24
    assert zeros == []


@pytest.mark.parametrize("label", [label for label, _ in ADE_EXPECTATIONS])
def test_products_inverses_and_minus_identity_match_matrices(label):
    """Pin mul, inverse and minus_identity to direct Mat2 arithmetic."""
    g = group(label)
    els = g.elements
    if g.order <= 48:
        pairs = [(i, j) for i in range(g.order) for j in range(g.order)]
    else:
        rng = random.Random(0)
        pairs = [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(600)]
    for i, j in pairs:
        assert els[g.mul(i, j)] == els[i] * els[j]
    for i, m in enumerate(els):
        assert els[g.inverse[i]] == Mat2(m.d, -m.b, -m.c, m.a)
    minus = -els[0]
    if minus in els:
        assert els[g.minus_identity] == minus
    else:
        assert g.minus_identity is None
    assert g.contains_minus_identity() == (g.descriptor.family != "cyclic"
                                           or g.descriptor.n % 2 == 0)


def test_closure_cap_rejects_a_generator_of_infinite_order(monkeypatch):
    desc = parse_descriptor("cyclic:4")
    n = desc.conductor
    stretch = Mat2(CycloNum(n, [2]), CycloNum(n, [0]),
                   CycloNum(n, [0]), CycloNum(n, [Fraction(1, 2)]))
    monkeypatch.setattr(groups, "_generators", lambda d: [stretch])
    with pytest.raises(ConsistencyError, match="exceeded 8 elements"):
        build_group.__wrapped__(desc)


def test_closure_rejects_an_entry_off_the_family_conductor(monkeypatch):
    desc = parse_descriptor("cyclic:4")
    g = groups._generators(desc)[0]
    assert desc.conductor == 8
    skewed = Mat2(g.a, CycloNum(4, [0]), g.c, g.d)
    monkeypatch.setattr(groups, "_generators", lambda d: [skewed])
    with pytest.raises(ConsistencyError, match="off conductor 8"):
        build_group.__wrapped__(desc)


# sha256 of repr((entries, table)): each element's entries as (conductor,
# den, num) in closure order, and the multiplication table.
CLOSURE_PINS = {
    "2I": "a6c9255953de14e527327d0bfd22c8b8c706ea19296fce83cb2c26c5ed0d7cd3",
    "bd:30": "ecec826302eec662486abb5f24b3df1989ad3cae2c55e272add9fc962e4edb37",
    "cyclic:60": "54aa2fc27366a97909a2c1bdb83fabc8f289ee0b51d33d94b7c84415e3d9beab",
}


@pytest.mark.parametrize("label", sorted(CLOSURE_PINS))
def test_elements_and_table_are_pinned(label):
    g = group(label)
    entries = [[(e.conductor, e.den, e.num) for e in m.entries()] for m in g.elements]
    table = [[g.mul(i, j) for j in range(g.order)] for i in range(g.order)]
    digest = hashlib.sha256(repr((entries, table)).encode()).hexdigest()
    assert digest == CLOSURE_PINS[label]
