"""Lattice classes: Euler pairing, dual bases, twist reflections, Weyl checks."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from mckay import ktheory, linalg
from mckay.heights import HeightFunction, enumerate_heights, parity_height
from mckay.ktheory import (P1Class, basis_change_unimodular, cartan_form,
                           classes_equal, euler_char, probe_set, simple_family,
                           twist_class, verify_dual_bases,
                           verify_twist_vs_flip, weyl_checks)
from mckay.verify import ADE_EXPECTATIONS, context, lattice_failures


def probe_vector(hd, graph, x):
    """The class's pairings against the probe set."""
    return tuple(euler_char(hd, p, x) for p in probe_set(graph))


def test_euler_pairing_base_cases():
    *_, hd = context("cyclic:2")
    w0 = P1Class.symbol(0, 0)
    assert euler_char(hd, w0, w0) == 1
    assert euler_char(hd, w0, P1Class.symbol(0, -2)) == -1
    # For the order-2 center every quadratic form is invariant, so the
    # equivariant chi(O, O(2)) sees all three sections.
    assert euler_char(hd, w0, P1Class.symbol(0, 2)) == hd(0, 0, 2) == 3


def test_parity_family_duality_defines_it():
    _, _, graph, hd = context("cyclic:2")
    family = simple_family(parity_height(graph))
    for k in range(2):
        fk = P1Class.symbol(k, graph.parity[k])
        for i, cls in enumerate(family):
            assert euler_char(hd, fk, cls) == (1 if i == k else 0)
    # Exact linear solve oracle: the duality system over the twist window
    # {p(j), p(j)-2} admits the family as a solution, and pairing against
    # the probe set pins the solution uniquely.
    window = [(j, e) for j in range(2) for e in (graph.parity[j], graph.parity[j] - 2)]
    for i, cls in enumerate(family):
        matrix = [[euler_char(hd, P1Class.symbol(k, graph.parity[k]),
                              P1Class.symbol(j, e)) for (j, e) in window]
                  for k in range(2)]
        target = [1 if k == i else 0 for k in range(2)]
        sol = linalg.solve([[Fraction(x) for x in row] for row in matrix],
                           [Fraction(t) for t in target])
        assert sol is not None


def test_flip_rules_at_class_level():
    _, _, graph, hd = context("cyclic:2")
    base = parity_height(graph)
    family = simple_family(base)
    source = base.quiver().sources()[0]
    flipped = simple_family(base.with_value(source, base.values[source] - 2))
    assert classes_equal(hd, graph, flipped[source], -family[source])
    other = 1 - source
    expected = family[other] + 2 * family[source]
    assert classes_equal(hd, graph, flipped[other], expected)


def test_nonneighbor_class_is_fixed():
    _, _, graph, hd = context("bd:2")
    base = parity_height(graph)
    family = simple_family(base)
    center = 4
    # Raise one leaf: in the parity orientation leaves are sinks.
    leaf = 1
    flipped = simple_family(base.with_value(leaf, base.values[leaf] + 2))
    for j in range(graph.size):
        if j != leaf and graph.n[leaf][j] == 0:
            assert classes_equal(hd, graph, flipped[j], family[j])
    assert classes_equal(hd, graph, flipped[center], family[center] + family[leaf])


def test_cartan_form_on_simple_classes():
    for label in ("cyclic:2", "cyclic:4", "bd:2"):
        _, _, graph, hd = context(label)
        for h in enumerate_heights(graph, 2):
            family = simple_family(h)
            for i, a in enumerate(family):
                for j, b in enumerate(family):
                    assert cartan_form(hd, a, b) == graph.cartan[i][j]


def test_delta_combination_is_radical():
    _, _, graph, hd = context("cyclic:4")
    family = simple_family(parity_height(graph))
    delta_class = P1Class()
    for i, coeff in enumerate(graph.delta):
        delta_class = delta_class + coeff * family[i]
    for cls in family:
        assert cartan_form(hd, delta_class, cls) == 0


def test_twist_examples_and_involution():
    _, _, graph, hd = context("cyclic:2")
    family = simple_family(parity_height(graph))
    e0, e1 = family
    assert classes_equal(hd, graph, twist_class(hd, family, 0, e0), -e0)
    t1 = twist_class(hd, family, 0, e1)
    assert classes_equal(hd, graph, t1, e1 + 2 * e0)
    assert classes_equal(hd, graph, twist_class(hd, family, 0, t1), e1)


def test_symbols_have_integral_family_coordinates():
    _, _, graph, hd = context("cyclic:2")
    family = simple_family(parity_height(graph))
    # The classes are a lattice basis, so W_0(4) has integral coordinates in
    # the family: solve for them on probe vectors.
    columns = [probe_vector(hd, graph, cls) for cls in family]
    target = probe_vector(hd, graph, P1Class.symbol(0, 4))
    coords = linalg.solve([[Fraction(col[r]) for col in columns]
                           for r in range(len(target))],
                          [Fraction(t) for t in target])
    assert coords is not None and all(c.denominator == 1 for c in coords)


@pytest.mark.parametrize("label", ["cyclic:2", "cyclic:4", "bd:2"])
def test_dual_bases_all_heights(label):
    _, _, graph, hd = context(label)
    for h in enumerate_heights(graph, 2):
        assert verify_dual_bases(graph, hd, h)


def test_dual_bases_after_one_flip():
    _, _, graph, hd = context("bd:2")
    base = parity_height(graph)
    sink = base.quiver().sinks()[0]
    raised = base.with_value(sink, base.values[sink] + 2)
    assert verify_dual_bases(graph, hd, raised)


@pytest.mark.parametrize("label", ["cyclic:2", "cyclic:4", "bd:2"])
def test_twist_matches_flip_everywhere(label):
    _, _, graph, hd = context(label)
    for h in enumerate_heights(graph, 2):
        quiver = h.quiver()
        for v in list(quiver.sources()) + list(quiver.sinks()):
            assert verify_twist_vs_flip(graph, hd, h, v), (h.values, v)


def test_twist_vs_flip_diagonal_and_nonneighbors():
    _, _, graph, hd = context("cyclic:4")
    h = HeightFunction(graph, (0, 0, 1, 1))
    family = simple_family(h)
    source = h.quiver().sources()[0]
    twisted_self = twist_class(hd, family, source, family[source])
    assert classes_equal(hd, graph, twisted_self, -family[source])
    for j in range(graph.size):
        if j != source and graph.n[source][j] == 0:
            tw = twist_class(hd, family, source, family[j])
            assert classes_equal(hd, graph, tw, family[j])


def twist_failure_rows(graph):
    """One "twist does not match flip" row per source and sink of every
    window-2 height, in the order `lattice_failures` reports them."""
    rows = []
    for h in enumerate_heights(graph, 2):
        quiver = h.quiver()
        rows += [{"height": list(h.values), "vertex": v,
                  "error": "twist does not match flip"}
                 for v in list(quiver.sources()) + list(quiver.sinks())]
    return rows


@pytest.mark.parametrize("label,count", [("cyclic:4", 16), ("bd:2", 66)])
def test_twist_reads_the_cartan_form(label, count, monkeypatch):
    # With the symmetrized form patched to 0 every twist is the identity, so
    # it misses the flipped class at the twisted vertex everywhere; the Cartan
    # check in `verify` reads its own binding and stays silent.
    monkeypatch.setattr(ktheory, "cartan_form", lambda hd, x, y: 0)
    _, _, graph, hd = context(label)
    rows = [row for h in enumerate_heights(graph, 2)
            for row in lattice_failures(graph, hd, h)]
    assert len(rows) == count
    assert rows == twist_failure_rows(graph)


def test_probe_vectors_separate_and_span():
    _, _, graph, hd = context("cyclic:4")
    family = simple_family(parity_height(graph))
    vectors = [probe_vector(hd, graph, cls) for cls in family]
    assert len(set(vectors)) == graph.size
    assert basis_change_unimodular(
        graph, hd, enumerate_heights(graph, 2)[0], enumerate_heights(graph, 2)[-1])


def test_every_height_spans_the_parity_lattice():
    _, _, graph, hd = context("bd:2")
    base = parity_height(graph)
    for h in enumerate_heights(graph, 2):
        assert basis_change_unimodular(graph, hd, base, h)


# The groups containing -I: even cyclic orders, every binary dihedral group
# and the three binary polyhedral groups.
MINUS_IDENTITY_GROUPS = [label for label, _ in ADE_EXPECTATIONS
                         if not (label.startswith("cyclic:") and int(label[7:]) % 2)]


@pytest.mark.parametrize("label", MINUS_IDENTITY_GROUPS)
def test_lattice_suite_on_every_group_with_minus_identity(label):
    _, _, graph, hd = context(label)
    assert graph.parity is not None
    heights = enumerate_heights(graph, 1)
    for h in heights:
        assert lattice_failures(graph, hd, h) == []
    assert basis_change_unimodular(graph, hd, heights[0], heights[-1])
    assert weyl_checks(graph)["ok"]


def resolution_classes(h):
    """The simple classes from the two-step projective resolution over kQ_h:
    P_i(h) minus the projectives at the heads of the arrows out of i."""
    quiver = h.quiver()
    return [sum((-P1Class.symbol(a.tgt, h.values[a.tgt]) for a in quiver.arrows_from(i)),
                P1Class.symbol(i, h.values[i]))
            for i in range(h.graph.size)]


def flip_rule(graph, classes, vertex):
    """The classes after flipping a source or sink: the class at the vertex
    is negated and each neighbour j gains n[vertex][j] copies of it."""
    return [-cls if j == vertex else cls + graph.n[vertex][j] * classes[vertex]
            for j, cls in enumerate(classes)]


@pytest.mark.parametrize("label", MINUS_IDENTITY_GROUPS)
def test_simple_family_is_the_resolution_and_follows_flips(label):
    _, _, graph, hd = context(label)
    for h in enumerate_heights(graph, 2):
        family = simple_family(h)
        for got, want in zip(family, resolution_classes(h), strict=True):
            assert classes_equal(hd, graph, got, want), (h.values, "resolution")
        quiver = h.quiver()
        steps = [(v, -2) for v in quiver.sources()] + [(v, 2) for v in quiver.sinks()]
        for v, step in steps:
            flipped = simple_family(h.with_value(v, h.values[v] + step))
            for got, want in zip(flipped, flip_rule(graph, family, v), strict=True):
                assert classes_equal(hd, graph, got, want), (h.values, v)


def test_weyl_relations():
    _, _, graph, _ = context("cyclic:2")
    report = weyl_checks(graph)
    assert report["ok"]
    assert report["double_edge_infinite"] is True

    _, _, graph3, _ = context("cyclic:3")
    report3 = weyl_checks(graph3)
    assert report3["ok"]
    assert all(item["ok"] for item in report3["braid3"])
    assert report3["double_edge_infinite"] is None

    _, _, graph4, _ = context("bd:2")
    assert weyl_checks(graph4)["ok"]


def expected_weyl_report(graph):
    """The Weyl report as the graph's edge multiplicities fix it: one braid
    entry per single edge i < j, the double-edge flag only when there is a
    double edge, and every other relation holding."""
    size = graph.size
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    double = any(graph.n[i][j] >= 2 for i, j in pairs)
    return {"squares": True,
            "braid3": [{"pair": [i, j], "ok": True} for i, j in pairs if graph.n[i][j] == 1],
            "double_edge_infinite": True if double else None,
            "delta_fixed": True, "form_preserved": True, "ok": True}


@pytest.mark.parametrize("label", [label for label, _ in ADE_EXPECTATIONS])
def test_weyl_report_on_every_group(label):
    _, _, graph, _ = context(label)
    assert weyl_checks(graph) == expected_weyl_report(graph)


def test_weyl_checks_catch_a_broken_cartan():
    _, _, graph, _ = context("cyclic:4")
    cartan = [list(row) for row in graph.cartan]
    cartan[0][1] = -2
    broken = dataclasses.replace(graph, cartan=tuple(tuple(row) for row in cartan))
    report = weyl_checks(broken)
    assert report["form_preserved"] is False
    assert report["ok"] is False


def test_basis_change_rejects_a_doubled_family(monkeypatch):
    _, _, graph, hd = context("bd:2")
    heights = enumerate_heights(graph, 2)
    h1, h2 = heights[0], heights[-1]
    family = ktheory.simple_family

    def doubled(h):
        got = family(h)
        return tuple(2 * cls for cls in got) if h == h2 else got

    monkeypatch.setattr(ktheory, "simple_family", doubled)
    assert basis_change_unimodular(graph, hd, h1, h2) is False
