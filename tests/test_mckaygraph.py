"""McKay graphs: multiplicities by character sums, ADE recognition, parity."""

from __future__ import annotations

import dataclasses
import random

import pytest

from mckay.chartab import dixon_character_table
from mckay.errors import ConsistencyError, PreconditionError
from mckay.exactnum import CycloNum
from mckay.groups import build_group, parse_descriptor
from mckay.mckaygraph import (classify_affine_ade, mckay_graph, parity_function,
                              reference_diagram)
from mckay.verify import ADE_EXPECTATIONS


def setup(label):
    g = build_group(parse_descriptor(label))
    t = dixon_character_table(g)
    return g, t


def graph_for(label):
    g, t = setup(label)
    return mckay_graph(g, t)


def _certified(n, label, iso):
    """True when iso is a vertex bijection with n[i][j] == ref[iso[i]][iso[j]]."""
    ref = reference_diagram(label)
    size = len(n)
    return (len(ref) == size and sorted(iso) == list(range(size))
            and all(n[i][j] == ref[iso[i]][iso[j]]
                    for i in range(size) for j in range(size)))


# The oracle: the earlier recognizer, which tried each candidate label with an
# unordered backtracking search.  It is exponential in the worst case, so it
# runs only on the groups below.
def _oracle_profile(n):
    return [(sum(row), tuple(sorted((x for x in row if x), reverse=True)))
            for row in n]


def _oracle_isomorphism(n, ref):
    size = len(n)
    if sorted(_oracle_profile(n)) != sorted(_oracle_profile(ref)):
        return None
    profiles = _oracle_profile(n)
    ref_profiles = _oracle_profile(ref)
    order = sorted(range(size), key=lambda v: (-profiles[v][0], v))
    assignment = [None] * size
    used = [False] * size

    def backtrack(pos):
        if pos == size:
            return True
        v = order[pos]
        for w in range(size):
            if used[w] or profiles[v] != ref_profiles[w]:
                continue
            if all(n[v][u] == ref[w][assignment[u]] for u in order[:pos]):
                assignment[v] = w
                used[w] = True
                if backtrack(pos + 1):
                    return True
                assignment[v] = None
                used[w] = False
        return False

    return [assignment[v] for v in range(size)] if backtrack(0) else None


def _oracle_classify(n):
    size = len(n)
    candidates = []
    if size in (7, 8, 9):
        candidates.append(f"E{size - 1}~")
    if size >= 5:
        candidates.append(f"D{size - 1}~")
    candidates.append(f"A{size - 1}~")
    for label in candidates:
        iso = _oracle_isomorphism(n, reference_diagram(label))
        if iso is not None:
            return label, iso
    return None, None


@pytest.mark.parametrize("label", [g for g, _ in ADE_EXPECTATIONS] + ["cyclic:13", "bd:8"])
def test_recognizer_agrees_with_backtracking_oracle(label):
    n = graph_for(label).n
    cls = classify_affine_ade(n)
    oracle_label, oracle_iso = _oracle_classify(n)
    assert cls.label == oracle_label is not None
    assert _certified(n, cls.label, cls.iso)
    assert _certified(n, oracle_label, oracle_iso)


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


@pytest.mark.parametrize("label", ["cyclic:3", "bd:2", "2T"])
def test_mckay_matrix_refuses_a_total_that_is_not_a_multiplicity(label):
    # Negated traces make every total -|G| n[i][j], read back with its sign;
    # trace + 1 at the identity adds d_i d_j, which |G| does not divide.
    _, t = setup(label)
    negated = tuple(-tau for tau in t.defining_values)
    with pytest.raises(ConsistencyError, match=r"nonnegative integer: -\d+ / "):
        dataclasses.replace(t, defining_values=negated).mckay_matrix
    shifted = (t.defining_values[0] + 1,) + t.defining_values[1:]
    with pytest.raises(ConsistencyError, match="nonnegative integer"):
        dataclasses.replace(t, defining_values=shifted).mckay_matrix


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
    assert graph.classification.label == "A3~"
    assert _certified(graph.n, "A3~", graph.classification.iso)


@pytest.mark.parametrize("label", ["A1~", "A2~", "A59~", "D4~", "D5~", "D32~",
                                   "E6~", "E7~", "E8~"])
def test_shuffled_references_are_recognized(label):
    ref = reference_diagram(label)
    size = len(ref)
    rng = random.Random(label)
    for _ in range(5):
        perm = list(range(size))
        rng.shuffle(perm)
        n = [[ref[perm[i]][perm[j]] for j in range(size)] for i in range(size)]
        cls = classify_affine_ade(n)
        assert cls.label == label
        assert _certified(n, label, cls.iso)


def test_not_ade_verdict():
    # A path graph is finite-type, not affine: no positive null vector.  Two
    # disjoint triangles have a two-dimensional null space.
    path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    triangles = [[1 if i != j and i // 3 == j // 3 else 0 for j in range(6)]
                 for i in range(6)]
    for n in (path, triangles):
        cls = classify_affine_ade(n)
        assert not cls.is_ade and cls.label is None and cls.delta is None


def test_positive_null_vector_without_a_diagram_is_inconsistent():
    # Not symmetric, so not a McKay matrix, but 2I - n has the null vector (1, 2).
    with pytest.raises(ConsistencyError):
        classify_affine_ade([[0, 1], [4, 0]])


@pytest.mark.parametrize("label", ["D2~", "D3~", "A0~", "E9~", "F4~", "A~", "A١~"])
def test_unknown_reference_labels(label):
    with pytest.raises(PreconditionError):
        reference_diagram(label)


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
