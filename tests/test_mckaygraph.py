"""McKay graphs: multiplicities by character sums, ADE recognition, parity."""

from __future__ import annotations

import pytest

from mckay.chartab import dixon_character_table
from mckay.errors import PreconditionError
from mckay.exactnum import CycloNum
from mckay.groups import build_group, parse_descriptor
from mckay.mckaygraph import (canonical_label, classify_affine_ade, mckay_graph,
                              parity_function, reference_diagram)


def setup(label):
    g = build_group(parse_descriptor(label))
    t = dixon_character_table(g)
    return g, t


def graph_for(label):
    g, t = setup(label)
    return mckay_graph(g, t)


def test_order_two_double_edge():
    g, t = setup("cyclic:2")
    assert t.mckay_matrix == ((0, 2), (2, 0))
    cls = classify_affine_ade([[0, 2], [2, 0]])
    assert cls.label == "A1~"
    assert cls.delta == (1, 1)


def test_mckay_matrix_against_character_sum_oracle():
    # Recompute the multiplicities with an independent elementwise sum.
    g, t = setup("bd:2")
    n = t.mckay_matrix
    data = g.conjugacy_classes()
    class_of = data.class_of
    for i in range(t.count):
        for j in range(t.count):
            acc = CycloNum.from_rational(0)
            for x in range(g.order):
                c = class_of[x]
                acc = acc + t.values[i][c].conj() * g.elements[x].trace() * t.values[j][c]
            assert acc.as_rational() == n[i][j] * g.order


def test_cyclic_graphs_are_cycles():
    for n in (3, 5, 7):
        graph = graph_for(f"cyclic:{n}")
        assert graph.classification.label == f"A{n - 1}~"
        degrees = [sum(row) for row in graph.n]
        assert degrees == [2] * n
        assert all(x in (0, 1) for row in graph.n for x in row)


def test_quaternion_star():
    graph = graph_for("bd:2")
    assert graph.classification.label == "D4~"
    center = max(range(5), key=lambda v: sum(graph.n[v]))
    assert graph.dims[center] == 2
    assert sum(graph.n[center]) == 4


def test_tetrahedral_e6_delta_in_reference_order():
    graph = graph_for("2T")
    cls = graph.classification
    assert cls.label == "E6~"
    ref_delta = [0] * 7
    for v, w in enumerate(cls.iso):
        ref_delta[w] = cls.delta[v]
    assert ref_delta == [1, 1, 1, 2, 2, 2, 3]


def test_iso_is_a_certified_bijection():
    graph = graph_for("2O")
    cls = graph.classification
    ref = reference_diagram(cls.label)
    for i in range(graph.size):
        for j in range(graph.size):
            assert graph.n[i][j] == ref[cls.iso[i]][cls.iso[j]]


def test_bd1_is_the_four_cycle_alias():
    graph = graph_for("bd:1")
    assert graph.classification.label == canonical_label("D3~") == "A3~"


def test_not_ade_verdict():
    # A path graph is finite-type, not affine: no positive null vector.
    path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    cls = classify_affine_ade(path)
    assert not cls.is_ade and cls.label is None


def test_delta_matches_dims_everywhere():
    for label in ["cyclic:2", "cyclic:6", "bd:1", "bd:3", "2T", "2O", "2I"]:
        graph = graph_for(label)
        assert graph.delta == graph.dims
        assert graph.delta[graph.affine_node] == 1


def test_parity_examples():
    graph = graph_for("cyclic:2")
    assert graph.parity == (0, 1)

    g, t = setup("bd:2")
    graph = mckay_graph(g, t)
    assert [graph.parity[v] for v in range(5)] == [0, 0, 0, 0, 1]

    g, t = setup("cyclic:4")
    graph = mckay_graph(g, t)
    # Independent derivation: a character is odd iff its value at a generator
    # is a primitive fourth root of unity.
    gen_cls = g.conjugacy_classes().class_of[g.generator_indices[0]]
    i_val = CycloNum.root_of_unity(4)
    expected = tuple(1 if t.values[k][gen_cls] in (i_val, -i_val) else 0
                     for k in range(4))
    assert graph.parity == expected
    assert sorted(graph.parity) == [0, 0, 1, 1]


def test_parity_requires_minus_identity():
    g, t = setup("cyclic:3")
    with pytest.raises(PreconditionError):
        parity_function(t, g)
    assert mckay_graph(g, t).parity is None


def test_parity_alternates_across_edges():
    for label in ["cyclic:6", "bd:3", "2T", "2O", "2I"]:
        graph = graph_for(label)
        for i in range(graph.size):
            for j in range(graph.size):
                if graph.n[i][j]:
                    assert graph.parity[i] != graph.parity[j]


def test_loop_rejected():
    g, t = setup("cyclic:1")
    with pytest.raises(PreconditionError):
        mckay_graph(g, t)


def test_cartan_rows_sum_against_delta():
    graph = graph_for("2I")
    delta = graph.delta
    for row in graph.cartan:
        assert sum(c * d for c, d in zip(row, delta)) == 0
