"""Heights, path counting, and the Hom/path and Ext identities."""

from __future__ import annotations

import pytest

from mckay.chartab import dixon_character_table
from mckay.errors import PreconditionError
from mckay.groups import build_group, parse_descriptor
from mckay.heights import (HeightFunction, enumerate_heights, ext_vanishing_check,
                           kirillov_check, path_counts)
from mckay.mckaygraph import mckay_graph
from mckay.molien import HomDims
from mckay.verify import ADE_EXPECTATIONS, context


def setup(label):
    g = build_group(parse_descriptor(label))
    t = dixon_character_table(g)
    return mckay_graph(g, t), HomDims(g, t)


def euler_sequence_check(h: HeightFunction, hom_dim, m_max: int) -> bool:
    """Exactness of the three-term sequence at a source, in graded dimensions.

    For a source i the sequence 0 -> F_i(lowered) -> sum of neighbors -> F_i -> 0
    is paired against every twisted projective F_k (x) T^m; pairing on the
    contravariant side keeps every correction term zero, so the alternating
    sum of dimensions must vanish for all k and m >= 0.
    """
    quiver = h.quiver()
    values = h.values
    for i in quiver.sources():
        lowered = values[i] - 2
        for k in range(h.graph.size):
            for m in range(m_max + 1):
                target = values[k] + 2 * m
                total = hom_dim(i, k, target - lowered)
                total -= sum(hom_dim(a.tgt, k, target - values[a.tgt])
                             for a in quiver.arrows if a.src == i)
                total += hom_dim(i, k, target - values[i])
                if total != 0:
                    return False
    return True


def test_double_edge_heights_window_one():
    graph, _ = setup("cyclic:2")
    values = {h.values for h in enumerate_heights(graph, 1)}
    assert values == {(0, 1), (0, -1)}


def test_four_cycle_heights_window_two():
    graph, _ = setup("cyclic:4")
    heights = enumerate_heights(graph, 2)
    assert len(heights) == 6
    spreads = sorted(max(h.values) - min(h.values) for h in heights)
    assert spreads == [1, 1, 2, 2, 2, 2]
    for h in heights:
        assert h.values[graph.affine_node] == 0


def test_star_heights_window_one():
    graph, _ = setup("bd:2")
    heights = enumerate_heights(graph, 1)
    # Anchored at a leaf: the center sits at +-1, every other leaf at 0.
    assert {h.values for h in heights} == {(0, 0, 0, 0, 1), (0, 0, 0, 0, -1)}


def test_validity_rules():
    graph, _ = setup("cyclic:2")
    with pytest.raises(PreconditionError, match=r"invalid height function \(0, 2\)"):
        HeightFunction(graph, (0, 2))   # even step
    with pytest.raises(PreconditionError, match=r"invalid height function \(0, 0\)"):
        HeightFunction(graph, (0, 0))   # parity clash
    with pytest.raises(PreconditionError):
        HeightFunction(graph, (0,))


def test_quiver_orientation_and_path_counts():
    graph, _ = setup("cyclic:2")
    h = HeightFunction(graph, (0, 1))
    q = h.quiver()
    assert q.sinks() == (0,) and q.sources() == (1,)
    paths = path_counts(q)
    assert paths[1][0] == 2
    assert paths[0][1] == 0
    assert paths[0][0] == 1 == paths[1][1]


def test_path_counts_on_a_staircase():
    graph, _ = setup("cyclic:4")
    # Find the staircase height (spread 2) and its top vertex.
    heights = [h for h in enumerate_heights(graph, 2)
               if max(h.values) - min(h.values) == 2]
    h = next(h for h in heights if max(h.values) == 2)
    top = h.values.index(2)
    bottom = h.values.index(0)  # the affine node at height 0 on the far side
    q = h.quiver()
    # Two descending routes around the cycle from the top to the opposite vertex.
    assert path_counts(q)[top][bottom] == 2


def test_kirillov_identity_examples():
    graph, hd = setup("cyclic:2")
    h = HeightFunction(graph, (0, 1))
    ok, rows = kirillov_check(h, hd)
    assert ok
    table = {tuple(r["pair"]): r for r in rows}
    assert table[(1, 0)]["hom_dim"] == 2 == table[(1, 0)]["path_count"]
    assert table[(0, 0)]["hom_dim"] == 1


@pytest.mark.parametrize("label", ["cyclic:2", "cyclic:4", "bd:2"])
def test_kirillov_identity_all_canonical_heights(label):
    graph, hd = setup(label)
    for h in enumerate_heights(graph, 2):
        ok, rows = kirillov_check(h, hd)
        assert ok, (h.values, [r for r in rows if not r["ok"]])


def reference_path_count(quiver, start: int, end: int) -> int:
    """Paths from start to end by one memo DFS per pair, arrows read off the
    quiver's arrow list: the oracle for the path-count matrix."""
    memo: dict[int, int] = {}

    def count(v: int) -> int:
        if v not in memo:
            memo[v] = int(v == end) + sum(count(a.tgt) for a in quiver.arrows if a.src == v)
        return memo[v]

    return count(start)


def reference_kirillov_rows(h: HeightFunction, hom_dim) -> list[dict]:
    quiver = h.quiver()
    rows = []
    for i in range(h.graph.size):
        for j in range(h.graph.size):
            paths = reference_path_count(quiver, i, j)
            dim = hom_dim(j, i, h.values[i] - h.values[j])
            rows.append({"pair": [i, j], "hom_dim": dim, "path_count": paths,
                         "ok": paths == dim})
    return rows


@pytest.mark.parametrize("label", ["cyclic:4", "bd:2"])
def test_kirillov_rows_under_an_injected_fault(label):
    # A Hom dimension off by one at the entry one pair reads must fail that
    # pair alone, with every row as the per-pair DFS gives it, in order.
    graph, hd = setup(label)
    for h in enumerate_heights(graph, 2):
        for i in range(graph.size):
            for j in range(graph.size):
                fault = (j, i, h.values[i] - h.values[j])

                def off(a, b, m, fault=fault):
                    return hd(a, b, m) + ((a, b, m) == fault)

                ok, rows = kirillov_check(h, off)
                assert not ok
                assert rows == reference_kirillov_rows(h, off), (h.values, i, j)
                assert [r["pair"] for r in rows if not r["ok"]] == [[i, j]]


@pytest.mark.parametrize("label", ["cyclic:4", "bd:2"])
def test_ext_vanishing(label):
    graph, hd = setup(label)
    for h in enumerate_heights(graph, 2):
        ok, witnesses = ext_vanishing_check(h, hd, 5)
        assert ok, witnesses


def test_ext_vanishing_negative_twist_is_trivial():
    graph, hd = setup("cyclic:2")
    h = HeightFunction(graph, (0, 1))
    # k=0, l=1, d=0: exponent h(0)-h(1)-2 = -3 < 0.
    assert hd(1, 0, h.values[0] - h.values[1] - 2) == 0


@pytest.mark.parametrize("label", ["cyclic:2", "cyclic:4", "bd:2"])
def test_euler_sequence_exactness(label):
    graph, hd = setup(label)
    for h in enumerate_heights(graph, 2):
        assert euler_sequence_check(h, hd, 6)


def test_sinks_and_sources_partition_bipartite_orientation():
    for label in ("cyclic:2", "cyclic:4", "bd:2"):
        graph, _ = setup(label)
        base = HeightFunction(graph, graph.parity)
        q = base.quiver()
        sinks, sources = set(q.sinks()), set(q.sources())
        assert not sinks & sources
        assert sinks | sources == set(range(graph.size))
        # Off the bipartite orientation the sets stay disjoint but need not cover.
        for h in enumerate_heights(graph, 2):
            qh = h.quiver()
            assert not set(qh.sinks()) & set(qh.sources())


def test_kirillov_and_ext_on_the_e6_graph():
    # Beyond the acceptance trio: the identities are orientation facts and
    # hold on the larger diagrams too.
    graph, hd = setup("2T")
    heights = enumerate_heights(graph, 1)
    assert len(heights) == 2
    for h in heights:
        ok, rows = kirillov_check(h, hd)
        assert ok, [r for r in rows if not r["ok"]]
        ok, witnesses = ext_vanishing_check(h, hd, 3)
        assert ok, witnesses
        assert euler_sequence_check(h, hd, 3)


def test_heights_need_minus_identity():
    g = build_group(parse_descriptor("cyclic:3"))
    t = dixon_character_table(g)
    graph = mckay_graph(g, t)
    with pytest.raises(PreconditionError):
        enumerate_heights(graph, 2)


def _battery_orientations():
    """Every window-2 orientation of the battery groups that contain -I."""
    for label, _ in ADE_EXPECTATIONS:
        graph = context(label)[2]
        if graph.parity is not None:
            yield from dict.fromkeys(h.quiver() for h in enumerate_heights(graph, 2))


def test_sinks_sources_and_reversals_follow_the_arrows():
    """sinks(), sources() and reverse_at(v) agree with a recomputation from
    the arrows by in- and out-degrees, at every vertex of every window-2
    orientation of the battery groups, asked twice."""
    checked = 0
    for quiver in _battery_orientations():
        outdeg, indeg = [0] * quiver.size, [0] * quiver.size
        for a in quiver.arrows:
            outdeg[a.src] += 1
            indeg[a.tgt] += 1
        sinks = tuple(v for v in range(quiver.size) if indeg[v] and not outdeg[v])
        sources = tuple(v for v in range(quiver.size) if outdeg[v] and not indeg[v])
        for _ in range(2):
            assert (quiver.sinks(), quiver.sources()) == (sinks, sources)
            for v in range(quiver.size):
                flipped = quiver.reverse_at(v)
                assert flipped.size == quiver.size
                assert [tuple(a) for a in flipped.arrows] == [
                    (a.tgt, a.src, a.edge) if v in (a.src, a.tgt) else tuple(a)
                    for a in quiver.arrows]
        checked += 1
    assert checked > 500


def test_reversal_is_computed_once_and_undone_by_itself():
    """reverse_at(v) returns one object per vertex, and reversing it at v
    again returns the quiver itself, so flipping back and forth builds no
    new quivers."""
    for quiver in _battery_orientations():
        for v in range(quiver.size):
            flipped = quiver.reverse_at(v)
            assert quiver.reverse_at(v) is flipped
            assert flipped.reverse_at(v) is quiver
