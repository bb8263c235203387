"""Lattice classes: Euler pairing, dual bases, twist reflections, Weyl checks."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from mckay import ktheory, linalg, verify
from mckay.heights import HeightFunction, enumerate_heights
from mckay.errors import ResourceLimitError
from mckay.ktheory import (FLIP_CAP, basis_change_unimodular, cartan_matrix,
                           flipped_classes, gram_matrix, projective_classes, simple_family,
                           symbol_class, twist_matches_flip, verify_dual_bases,
                           verify_twist_vs_flip, weyl_checks)
from mckay.verify import ADE_EXPECTATIONS, context, lattice_failures


def comb(*terms):
    """The integer combination sum of c * x over the (c, x) terms."""
    return tuple(sum(c * x[k] for c, x in terms) for k in range(len(terms[0][1])))


def family_at(hd, h):
    return simple_family(h, projective_classes(hd, h))


def pairings(gram, xs, ys):
    """The Euler pairings X G Y^T of two lists of classes, read off gram."""
    return linalg.matmul(linalg.matmul(xs, gram), list(zip(*ys)))


def symbol_pairing(hd, x, y):
    """Oracle Euler pairing on formal sums of symbols {(irrep, twist): coeff}:
    Hom minus Ext^1, the latter by Serre duality with the twist -2."""
    return sum(u * v * (hd(i, j, b - a) - hd(j, i, a - b - 2))
               for (i, a), u in x.items() for (j, b), v in y.items())


def test_euler_pairing_base_cases():
    *_, graph, hd = context("cyclic:2")
    gram = gram_matrix(hd, graph.size)
    w0 = symbol_class(hd, 2, 0, 0)
    row = pairings(gram, [w0], [w0, symbol_class(hd, 2, 0, -2), symbol_class(hd, 2, 0, 2)])[0]
    assert row[:2] == (1, -1)
    # For the order-2 center every quadratic form is invariant, so the
    # equivariant chi(O, O(2)) sees all three sections.
    assert row[2] == hd(0, 0, 2) == 3


@pytest.mark.parametrize("label", ["cyclic:4", "bd:2", "2T", "2I", "cyclic:12"])
def test_vector_pairing_is_the_symbol_pairing(label):
    _, _, graph, hd = context(label)
    gram = gram_matrix(hd, graph.size)
    symbols = [(i, d) for i in range(graph.size) for d in range(-3, 4)]
    vectors = [symbol_class(hd, graph.size, *s) for s in symbols]
    for s, row in zip(symbols, pairings(gram, vectors, vectors)):
        for t, value in zip(symbols, row):
            assert value == symbol_pairing(hd, {s: 1}, {t: 1}), (s, t)


@pytest.mark.parametrize("label", ["cyclic:2", "bd:2", "2I"])
def test_symbol_classes_satisfy_the_euler_sequence(label):
    _, _, graph, hd = context(label)
    size = graph.size
    for i in range(size):
        for d in range(-4, 5):
            terms = [(graph.n[i][j], symbol_class(hd, size, j, d - 1)) for j in range(size)]
            want = comb(*terms, (-1, symbol_class(hd, size, i, d - 2)))
            assert symbol_class(hd, size, i, d) == want, (i, d)


@pytest.mark.parametrize("label", [label for label, _ in ADE_EXPECTATIONS])
def test_gram_matrix_is_identity_over_the_mckay_matrix(label):
    _, table, graph, hd = context(label)
    size = graph.size
    n = table.mckay_matrix
    want = ([tuple([int(i == j) for j in range(size)] + list(n[i])) for i in range(size)]
            + [tuple([0] * size + [int(i == j) for j in range(size)]) for i in range(size)])
    assert gram_matrix(hd, size) == want


def test_parity_family_duality_defines_it():
    _, _, graph, hd = context("cyclic:2")
    gram = gram_matrix(hd, 2)
    family = family_at(hd, HeightFunction(graph, graph.parity))
    projectives = [symbol_class(hd, 2, k, graph.parity[k]) for k in range(2)]
    assert pairings(gram, projectives, family) == [(1, 0), (0, 1)]
    # Exact linear solve oracle: the duality system over the twist window
    # {p(j), p(j)-2} admits the family as a solution.
    window = [symbol_class(hd, 2, j, e) for j in range(2)
              for e in (graph.parity[j], graph.parity[j] - 2)]
    matrix = [[Fraction(x) for x in row] for row in pairings(gram, projectives, window)]
    for i in range(2):
        target = [Fraction(int(k == i)) for k in range(2)]
        assert linalg.solve_many(matrix, [target]) is not None


def test_flip_rules_at_class_level():
    _, _, graph, hd = context("cyclic:2")
    base = HeightFunction(graph, graph.parity)
    family = family_at(hd, base)
    source = base.quiver().sources()[0]
    flipped = family_at(hd, base.with_value(source, base.values[source] - 2))
    assert flipped[source] == comb((-1, family[source]))
    other = 1 - source
    assert flipped[other] == comb((1, family[other]), (2, family[source]))


def test_nonneighbor_class_is_fixed():
    _, _, graph, hd = context("bd:2")
    base = HeightFunction(graph, graph.parity)
    family = family_at(hd, base)
    center = 4
    # Raise one leaf: in the parity orientation leaves are sinks.
    leaf = 1
    flipped = family_at(hd, base.with_value(leaf, base.values[leaf] + 2))
    for j in range(graph.size):
        if j != leaf and graph.n[leaf][j] == 0:
            assert flipped[j] == family[j]
    assert flipped[center] == comb((1, family[center]), (1, family[leaf]))


def test_cartan_form_on_simple_classes():
    for label in ("cyclic:2", "cyclic:4", "bd:2"):
        _, _, graph, hd = context(label)
        gram = gram_matrix(hd, graph.size)
        for h in enumerate_heights(graph, 2):
            family = family_at(hd, h)
            half = pairings(gram, family, family)
            cartan = cartan_matrix(gram, family)
            for i in range(graph.size):
                for j in range(graph.size):
                    assert cartan[i][j] == half[i][j] + half[j][i] == graph.cartan[i][j]


def test_delta_combination_is_radical():
    _, _, graph, hd = context("cyclic:4")
    gram = gram_matrix(hd, graph.size)
    family = family_at(hd, HeightFunction(graph, graph.parity))
    delta_class = comb(*zip(graph.delta, family))
    half = pairings(gram, [delta_class], family)[0]
    other = pairings(gram, family, [delta_class])
    assert [x + y for x, (y,) in zip(half, other)] == [0] * graph.size
    assert linalg.matmul([graph.delta], cartan_matrix(gram, family)) == [(0,) * graph.size]


def test_twist_examples_and_involution():
    _, _, graph, hd = context("cyclic:2")
    gram = gram_matrix(hd, 2)
    family = family_at(hd, HeightFunction(graph, graph.parity))
    e0, e1 = family
    twisted = [comb((-1, e0)), comb((1, e1), (2, e0))]
    assert twist_matches_flip(cartan_matrix(gram, family), family, 0, twisted)
    assert not twist_matches_flip(cartan_matrix(gram, family), family, 0, family)
    assert twist_matches_flip(cartan_matrix(gram, twisted), twisted, 0, family)


def test_symbols_have_integral_family_coordinates():
    _, _, graph, hd = context("cyclic:2")
    family = family_at(hd, HeightFunction(graph, graph.parity))
    # The classes are a lattice basis, so W_0(4) has integral coordinates in
    # the family: solve for them on the class vectors.
    target = symbol_class(hd, 2, 0, 4)
    coords = linalg.solve_many([[Fraction(cls[r]) for cls in family]
                                for r in range(len(target))], [[Fraction(t) for t in target]])
    assert coords is not None and all(c.denominator == 1 for c in coords[0])


@pytest.mark.parametrize("label", ["cyclic:2", "cyclic:4", "bd:2"])
def test_dual_bases_all_heights(label):
    _, _, graph, hd = context(label)
    gram = gram_matrix(hd, graph.size)
    for h in enumerate_heights(graph, 2):
        proj = projective_classes(hd, h)
        assert verify_dual_bases(gram, proj, simple_family(h, proj))


def test_dual_bases_after_one_flip():
    _, _, graph, hd = context("bd:2")
    base = HeightFunction(graph, graph.parity)
    sink = base.quiver().sinks()[0]
    raised = base.with_value(sink, base.values[sink] + 2)
    proj = projective_classes(hd, raised)
    assert verify_dual_bases(gram_matrix(hd, graph.size), proj, simple_family(raised, proj))


@pytest.mark.parametrize("label", ["cyclic:2", "cyclic:4", "bd:2"])
def test_twist_matches_flip_everywhere(label):
    _, _, graph, hd = context(label)
    for h in enumerate_heights(graph, 2):
        quiver = h.quiver()
        for v in list(quiver.sources()) + list(quiver.sinks()):
            assert verify_twist_vs_flip(graph, hd, h, v), (h.values, v)


def test_twist_vs_flip_diagonal_and_nonneighbors():
    _, _, graph, hd = context("cyclic:4")
    gram = gram_matrix(hd, graph.size)
    h = HeightFunction(graph, (0, 0, 1, 1))
    family = family_at(hd, h)
    source = h.quiver().sources()[0]
    cartan = cartan_matrix(gram, family)
    # The twist negates the source's class and adds it once to each neighbour
    # (the Cartan row is 2 on the diagonal, -1 at neighbours, 0 elsewhere).
    twisted = [comb((-1, x)) if j == source
               else comb((1, x), (graph.n[source][j], family[source]))
               for j, x in enumerate(family)]
    assert cartan[source] == tuple(2 if j == source else -graph.n[source][j]
                                   for j in range(graph.size))
    assert twist_matches_flip(cartan, family, source, twisted)


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


def zero_the_twisted_row(monkeypatch):
    """Make every twist of `lattice_failures` read a zero Cartan row, so
    each twist is the identity."""
    twist = verify.twist_matches_flip

    def zeroed(cartan, family, vertex, flipped):
        rows = [(0,) * len(row) if i == vertex else row for i, row in enumerate(cartan)]
        return twist(rows, family, vertex, flipped)

    monkeypatch.setattr(verify, "twist_matches_flip", zeroed)


@pytest.mark.parametrize("label,count", [("cyclic:4", 16), ("bd:2", 66)])
def test_twist_reads_the_cartan_form(label, count, monkeypatch):
    # With the Cartan row the twist reads set to 0 every twist is the
    # identity, so it misses the flipped class at the twisted vertex
    # everywhere; the Cartan check reads the matrix unchanged and stays silent.
    zero_the_twisted_row(monkeypatch)
    _, _, graph, hd = context(label)
    rows = [row for h in enumerate_heights(graph, 2)
            for row in lattice_failures(graph, hd, h)]
    assert len(rows) == count
    assert rows == twist_failure_rows(graph)


def reference_lattice_failures(graph, hd, h):
    """The rows of `lattice_failures` with every pairing taken class by class
    (x G y^T summed entry by entry) and each twist as one reflection per
    class: the oracle for the matrix-product form.  Families come from
    `verify.simple_family`, in the order `lattice_failures` builds them."""
    gram = gram_matrix(hd, graph.size)

    def euler(x, y):
        return sum(u * g * v for u, row in zip(x, gram) for g, v in zip(row, y))

    def form(x, y):
        return euler(x, y) + euler(y, x)

    proj = projective_classes(hd, h)
    family = verify.simple_family(h, proj)
    tag = list(h.values)
    rows = [{"height": tag, "entry": [i, j], "error": "cartan form mismatch"}
            for i, a in enumerate(family) for j, b in enumerate(family)
            if form(a, b) != graph.cartan[i][j]]
    if [[euler(p, s) for s in family] for p in proj] != \
            [[int(i == j) for j in range(graph.size)] for i in range(graph.size)]:
        rows.append({"height": tag, "error": "dual bases fail"})
    quiver = h.quiver()
    for vertex, step in [(v, -2) for v in quiver.sources()] + [(v, 2) for v in quiver.sinks()]:
        flipped = h.with_value(vertex, h.values[vertex] + step)
        e = family[vertex]
        twisted = [comb((1, x), (-form(e, x), e)) for x in family]
        if twisted != verify.simple_family(flipped, flipped_classes(hd, proj, flipped, vertex)):
            rows.append({"height": tag, "vertex": vertex, "error": "twist does not match flip"})
    return rows


@pytest.mark.parametrize("label", ["cyclic:4", "bd:2"])
def test_lattice_rows_under_a_perturbed_family(label, monkeypatch):
    # One entry of the k-th family built is raised by one: k = 0 is the
    # height's own family (Cartan, dual-basis and twist rows), k >= 1 the
    # family of the k-th flip (its twist row alone).  The rows must be the
    # oracle's, in the same order.
    _, _, graph, hd = context(label)
    family = verify.simple_family
    state = {"built": 0, "target": 0}

    def perturbed(h, proj):
        got = family(h, proj)
        k = state["built"]
        state["built"] += 1
        if k != state["target"]:
            return got
        r, c = k % graph.size, (3 * k + 1) % (2 * graph.size)
        return [tuple(x + (i == r and j == c) for j, x in enumerate(row))
                for i, row in enumerate(got)]

    monkeypatch.setattr(verify, "simple_family", perturbed)
    for h in enumerate_heights(graph, 2):
        quiver = h.quiver()
        flips = list(quiver.sources()) + list(quiver.sinks())
        for target in range(len(flips) + 1):
            state.update(built=0, target=target)
            got = lattice_failures(graph, hd, h)
            state.update(built=0, target=target)
            assert got == reference_lattice_failures(graph, hd, h), (h.values, target)
            if target:
                assert got == [{"height": list(h.values), "vertex": flips[target - 1],
                                "error": "twist does not match flip"}]
            else:
                assert got


def test_simple_classes_separate_and_span():
    _, _, graph, hd = context("cyclic:4")
    family = family_at(hd, HeightFunction(graph, graph.parity))
    assert len(set(family)) == graph.size
    assert basis_change_unimodular(
        graph, hd, enumerate_heights(graph, 2)[0], enumerate_heights(graph, 2)[-1])


def test_every_height_spans_the_parity_lattice():
    _, _, graph, hd = context("bd:2")
    base = HeightFunction(graph, graph.parity)
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
    heights = enumerate_heights(graph, 2)
    for h in heights:
        assert lattice_failures(graph, hd, h) == []
        quiver = h.quiver()
        for v in list(quiver.sources()) + list(quiver.sinks()):
            assert verify_twist_vs_flip(graph, hd, h, v), (h.values, v)
    assert basis_change_unimodular(graph, hd, heights[0], heights[-1])
    assert weyl_checks(graph)["ok"]


def resolution_classes(hd, h):
    """The simple classes from the two-step projective resolution over kQ_h:
    P_i(h) minus the projectives at the heads of the arrows out of i."""
    quiver = h.quiver()
    size = h.graph.size
    return [comb((1, symbol_class(hd, size, i, h.values[i])),
                 *[(-1, symbol_class(hd, size, a.tgt, h.values[a.tgt]))
                   for a in quiver.arrows if a.src == i])
            for i in range(size)]


def flip_rule(graph, classes, vertex):
    """The classes after flipping a source or sink: the class at the vertex
    is negated and each neighbour j gains n[vertex][j] copies of it."""
    return [comb((-1, cls)) if j == vertex
            else comb((1, cls), (graph.n[vertex][j], classes[vertex]))
            for j, cls in enumerate(classes)]


@pytest.mark.parametrize("label", MINUS_IDENTITY_GROUPS)
def test_simple_family_is_the_resolution_and_follows_flips(label):
    _, _, graph, hd = context(label)
    for h in enumerate_heights(graph, 2):
        family = family_at(hd, h)
        assert family == resolution_classes(hd, h), h.values
        quiver = h.quiver()
        steps = [(v, -2) for v in quiver.sources()] + [(v, 2) for v in quiver.sinks()]
        for v, step in steps:
            flipped = family_at(hd, h.with_value(v, h.values[v] + step))
            assert flipped == flip_rule(graph, family, v), (h.values, v)


@pytest.mark.parametrize("label", ["cyclic:4", "bd:2", "2T"])
def test_flipped_classes_rebuild_only_the_flipped_row(label):
    _, _, graph, hd = context(label)
    for h in enumerate_heights(graph, 2):
        proj = projective_classes(hd, h)
        quiver = h.quiver()
        steps = [(v, -2) for v in quiver.sources()] + [(v, 2) for v in quiver.sinks()]
        for v, step in steps:
            flipped = h.with_value(v, h.values[v] + step)
            assert flipped_classes(hd, proj, flipped, v) == projective_classes(hd, flipped)


def test_lattice_failures_refuse_a_flip_past_the_cap():
    # (F, F + 1) on cyclic:2 lies F flips from the parity height (0, 1); the
    # sink flip to (F + 2, F + 1) lies one further.
    _, _, graph, hd = context("cyclic:2")
    h = HeightFunction(graph, (FLIP_CAP, FLIP_CAP + 1))
    projective_classes(hd, h)
    with pytest.raises(ResourceLimitError, match=f"{FLIP_CAP + 1} flips"):
        lattice_failures(graph, hd, h)


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

    def doubled(h, proj):
        got = family(h, proj)
        return [comb((2, cls)) for cls in got] if h == h2 else got

    monkeypatch.setattr(ktheory, "simple_family", doubled)
    assert basis_change_unimodular(graph, hd, h1, h2) is False


@pytest.mark.parametrize("scale", [2, -1])
def test_a_scaled_simple_fails_the_dual_bases_and_the_cartan_form(scale, monkeypatch):
    # Doubling or negating the simple class at vertex 0 of every family
    # breaks the pairing with P_0 and the Cartan entries in row 0.
    family = verify.simple_family

    def scaled(h, proj):
        got = family(h, proj)
        return [comb((scale, got[0]))] + got[1:]

    monkeypatch.setattr(verify, "simple_family", scaled)
    _, _, graph, hd = context("bd:2")
    rows = lattice_failures(graph, hd, HeightFunction(graph, graph.parity))
    errors = [row["error"] for row in rows]
    assert "dual bases fail" in errors
    entries = [row["entry"] for row in rows if row["error"] == "cartan form mismatch"]
    want = [[0, j] for j in range(graph.size)
            if graph.cartan[0][j] * scale ** (2 if j == 0 else 1) != graph.cartan[0][j]]
    assert want and [e for e in entries if e[0] == 0] == want
