"""Quadratic presentations: relation counts, duality, truncated dimensions."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from mckay import preproj
from mckay.chartab import dixon_character_table
from mckay.errors import ResourceLimitError
from mckay.groups import build_group, parse_descriptor
from mckay.mckaygraph import mckay_graph
from mckay.molien import HomDims
from mckay.preproj import (GradedDims, double_quiver, ext_algebra_presentation,
                           preprojective_presentation, presentations_match,
                           quadratic_dual, truncated_hilbert,
                           truncated_koszul_check)
from mckay.verify import ADE_EXPECTATIONS, context, hilbert_mismatches


def setup(label):
    g = build_group(parse_descriptor(label))
    t = dixon_character_table(g)
    return mckay_graph(g, t), HomDims(g, t)


def test_double_quiver_arrow_counts():
    graph, _ = setup("cyclic:2")
    arrows = double_quiver(graph)
    assert len(arrows) == 4
    assert sum(1 for a in arrows if not a.is_star) == 2


def test_preprojective_relation_count_is_vertex_count():
    for label in ("cyclic:2", "cyclic:3", "bd:2"):
        graph, _ = setup(label)
        pres = preprojective_presentation(graph)
        assert len(pres.relations) == graph.size
        # Each relation is a signed sum of round trips based at one vertex.
        for rel in pres.relations:
            block = pres.block_of(rel)
            assert block[0] == block[1]


def test_double_edge_preprojective_relation_structure():
    graph, _ = setup("cyclic:2")
    pres = preprojective_presentation(graph)
    by_vertex = {pres.block_of(rel)[0]: dict(rel) for rel in pres.relations}
    # Both edges point 0 -> 1 in the stored convention, so the relation at 0
    # is the equal-signed sum of both round trips, and at 1 the reverse trips.
    assert by_vertex[0] == {(0, 1): -1, (2, 3): -1}
    assert by_vertex[1] == {(1, 0): 1, (3, 2): 1}


def test_ext_loop_relations_have_two_terms_on_cycles():
    graph, _ = setup("cyclic:3")
    ext = ext_algebra_presentation(graph)
    loop_rels = [rel for rel in ext.relations
                 if pres_block_is_loop(ext, rel) and len(rel) > 1]
    # One alternating relation per vertex, each mixing the two matched trips.
    assert len(loop_rels) == 3
    for rel in loop_rels:
        assert len(rel) == 2


def pres_block_is_loop(pres, rel):
    block = pres.block_of(rel)
    return block[0] == block[1]


def test_three_cycle_relations_have_two_terms():
    graph, _ = setup("cyclic:3")
    pres = preprojective_presentation(graph)
    for rel in pres.relations:
        assert len(rel) == 2
        assert all(c in (-1, 1) for _, c in rel)
        # Round trips leaving along a star arrow carry the opposite sign of
        # trips leaving along a positive arrow.
        signs = {pres.arrows[a1].is_star: c for (a1, _), c in rel}
        if len(signs) == 2:
            assert signs[True] == -signs[False]


def num_length2_paths(pres) -> int:
    return sum(first.tgt == second.src for first in pres.arrows for second in pres.arrows)


def test_ext_relation_count_matches_dimension_formula():
    for label in ("cyclic:2", "cyclic:4", "bd:2"):
        graph, _ = setup(label)
        ext = ext_algebra_presentation(graph)
        expected = num_length2_paths(ext) - graph.size
        assert len(ext.relations) == expected


def test_double_edge_counts():
    graph, _ = setup("cyclic:2")
    ext = ext_algebra_presentation(graph)
    assert num_length2_paths(ext) == 8
    assert len(ext.relations) == 6


def test_dual_of_ext_is_preprojective():
    for label in ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "bd:2"):
        graph, _ = setup(label)
        pre = preprojective_presentation(graph)
        ext = ext_algebra_presentation(graph)
        assert presentations_match(quadratic_dual(ext), pre)
        assert presentations_match(quadratic_dual(pre), ext)


def test_double_dual_is_identity():
    graph, _ = setup("bd:2")
    for pres in (preprojective_presentation(graph), ext_algebra_presentation(graph)):
        assert presentations_match(quadratic_dual(quadratic_dual(pres)), pres)


def test_annihilator_dimension_count():
    graph, _ = setup("cyclic:4")
    ext = ext_algebra_presentation(graph)
    dual = quadratic_dual(ext)
    assert len(ext.relations) + len(dual.relations) == num_length2_paths(ext)


def test_truncated_dims_low_degrees():
    graph, _ = setup("cyclic:2")
    pres = preprojective_presentation(graph)
    dims = truncated_hilbert(pres, 3)
    assert dims.dim(0, 0, 0) == 1 and dims.dim(0, 1, 0) == 0
    assert dims.dim(0, 1, 1) == 2
    assert dims.dim(0, 0, 2) == 3      # four round trips modulo one relation
    assert dims.dim(0, 1, 3) == 4


@pytest.mark.parametrize("label", ["cyclic:2", "cyclic:3", "cyclic:4", "bd:2"])
def test_hilbert_matches_molien_through_degree_six(label):
    graph, hd = setup(label)
    dims = truncated_hilbert(preprojective_presentation(graph), 6)
    for d in range(7):
        for i in range(graph.size):
            for j in range(graph.size):
                assert dims.dim(i, j, d) == hd(i, j, d), (label, i, j, d)


@pytest.mark.parametrize("label", [label for label, _ in ADE_EXPECTATIONS])
def test_hilbert_matches_hom_dims_through_degree_twelve(label):
    _, _, graph, hd = context(label)
    dims = truncated_hilbert(preprojective_presentation(graph), 12)
    assert hilbert_mismatches(graph, hd, dims) == []


@pytest.mark.parametrize("label", ["cyclic:3", "cyclic:4", "bd:2"])
def test_ext_presentation_dimensions_terminate(label):
    # The Ext algebra of the vertex simples lives in degrees 0, 1, 2 with
    # graded dimensions Id, n, Id; its quadratic quotient must reproduce
    # exactly that and then vanish.  Independent of the Molien route.
    graph, _ = setup(label)
    dims = truncated_hilbert(ext_algebra_presentation(graph), 4)
    nv = graph.size
    for i in range(nv):
        for j in range(nv):
            assert dims.dim(i, j, 0) == (1 if i == j else 0)
            assert dims.dim(i, j, 1) == graph.n[i][j]
            assert dims.dim(i, j, 2) == (1 if i == j else 0)
            assert dims.dim(i, j, 3) == 0
            assert dims.dim(i, j, 4) == 0


@pytest.mark.parametrize("label", ["cyclic:2", "cyclic:4", "bd:2"])
def test_truncated_koszul_identity(label):
    graph, _ = setup(label)
    ok, witness = truncated_koszul_check(preprojective_presentation(graph), 6)
    assert ok, witness


def reference_koszul(h, hdual, max_degree: int):
    """The truncated Poincare identity entry by entry, the witness being the
    first entry off in (degree, row, column) order: the oracle for the
    matrix-product form."""
    nv = h.num_vertices
    for d in range(max_degree + 1):
        for i in range(nv):
            for j in range(nv):
                acc = sum((-1) ** (d - a) * h.dim(i, k, a) * hdual.dim(k, j, d - a)
                          for a in range(d + 1) for k in range(nv))
                if acc != int(d == 0 and i == j):
                    return False, {"degree": d, "entry": [i, j], "value": acc}
    return True, None


@pytest.mark.parametrize("label", ["cyclic:4", "bd:2"])
def test_koszul_witness_under_a_perturbed_dual(label, monkeypatch):
    # Each dimension of the dual raised by one in turn: the check must fail
    # and name the entry and value the entrywise sum names.
    graph, _ = setup(label)
    pres = preprojective_presentation(graph)
    top = 4
    h = truncated_hilbert(pres, top)
    hdual = truncated_hilbert(quadratic_dual(pres), top)
    nv = graph.size
    monkeypatch.setattr(preproj, "quadratic_dual", lambda p: None)
    for b in range(top + 1):
        for k in range(nv):
            for j in range(nv):
                mats = [[list(row) for row in mat] for mat in hdual.matrices]
                mats[b][k][j] += 1
                bad = GradedDims(nv, tuple(tuple(map(tuple, mat)) for mat in mats))
                monkeypatch.setattr(preproj, "truncated_hilbert",
                                    lambda p, degree, bad=bad: h if p is pres else bad)
                got = preproj.truncated_koszul_check(pres, top)
                assert got[0] is False
                assert got == reference_koszul(h, bad, top), (b, k, j)


def test_column_cap_guard():
    # The largest bd:2 block through degree 6 has 12 columns.
    graph, _ = setup("bd:2")
    pres = preprojective_presentation(graph)
    with pytest.raises(ResourceLimitError,
                       match=r"degree 6 block \(4, 4\) has 12 columns, above the cap 10"):
        truncated_hilbert(pres, 6, column_cap=10)
    assert truncated_hilbert(pres, 6, column_cap=12).max_degree == 6


# Golden record of truncated graded dimensions.  Regenerate (only when an
# output change is intended) with `PYTHONPATH=src python tests/test_preproj.py`.
_GOLDEN_HILBERT = Path(__file__).parent / "golden" / "hilbert.json"


def _golden_hilbert_text() -> str:
    """`GradedDims.to_json()` of the preprojective presentations through
    degree 10, their quadratic duals through degree 8 and the Ext
    presentations through degree 4, one case per line."""
    cases = {}
    for label in ("cyclic:2", "cyclic:3", "cyclic:4", "bd:2"):
        graph, _ = setup(label)
        pre = preprojective_presentation(graph)
        cases[f"preprojective {label}"] = truncated_hilbert(pre, 10)
        cases[f"dual of preprojective {label}"] = truncated_hilbert(quadratic_dual(pre), 8)
        if label != "cyclic:2":
            cases[f"ext {label}"] = truncated_hilbert(ext_algebra_presentation(graph), 4)
    lines = [json.dumps({name: dims.to_json()}, sort_keys=True)
             for name, dims in cases.items()]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_truncated_hilbert_matches_golden_record():
    assert _golden_hilbert_text() == _GOLDEN_HILBERT.read_text(encoding="utf-8")


def test_presentation_json_shape():
    graph, _ = setup("cyclic:2")
    blob = preprojective_presentation(graph).to_json()
    assert blob["vertices"] == 2
    assert {a["name"] for a in blob["arrows"]} == {"a0", "a0*", "a1", "a1*"}
    for rel in blob["relations"]:
        for coeff, pair in rel:
            assert isinstance(coeff, str) and len(pair) == 2


if __name__ == "__main__":
    _GOLDEN_HILBERT.write_text(_golden_hilbert_text(), encoding="utf-8")
