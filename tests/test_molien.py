"""Molien matrices, the Koszul identity, Hom dimensions, the height regrading."""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction

import pytest

from mckay import exactnum, molien
from mckay.exactnum import CycloNum, Poly, RatFunc
from mckay.mckaygraph import mckay_graph, mckay_matrix
from mckay.molien import HomDims, graded_dim_Bh, koszul_check, molien_matrices
from mckay.heights import HeightFunction
from mckay.verify import ADE_EXPECTATIONS, context

ALL_GROUPS = [label for label, _ in ADE_EXPECTATIONS]


@functools.cache
def built(label):
    """(group, table, Molien matrices) for a descriptor, built once per run."""
    g, t, _, _ = context(label)
    return g, t, molien_matrices(g, t)


def perturb_e00(m):
    """The Molien matrices with t/3 added to E[0][0]."""
    e = [list(row) for row in m.E]
    e[0][0] = e[0][0] + Poly.rational([0, Fraction(1, 3)])
    return dataclasses.replace(m, E=tuple(tuple(row) for row in e))


def test_order_two_molien_entries():
    m = built("cyclic:2")[2]
    assert m.S[0][0] == RatFunc(Poly.rational([1, 0, 1]),
                                Poly.rational([1, 0, -2, 0, 1]))
    assert m.E[0][0] == Poly.rational([1, 0, 1])
    assert m.E[0][1] == Poly.rational([0, 2])


def test_s_at_zero_is_identity():
    for label in ("cyclic:3", "bd:2", "2T"):
        for p, row in enumerate(built(label)[2].S):
            for q, entry in enumerate(row):
                assert entry.series(0).coeffs[0] == (1 if p == q else 0)


def test_koszul_identity_by_hand_for_order_two():
    m = built("cyclic:2")[2]
    # S = P / delta with delta = (1-t^2)^2: on the diagonal
    # (1+t^2)^2 - 4t^2 = (1-t^2)^2 and off it the cross terms cancel.
    assert m.delta == Poly.rational([1, 0, -2, 0, 1])
    assert m.P[0][0] == Poly.rational([1, 0, 1])
    assert m.P[0][1] == Poly.rational([0, 2])
    e_neg = [[m.E[q][r].compose_neg() for r in range(2)] for q in range(2)]
    diag = m.P[0][0] * e_neg[0][0] + m.P[0][1] * e_neg[1][0]
    off = m.P[0][0] * e_neg[0][1] + m.P[0][1] * e_neg[1][1]
    assert diag == m.delta
    assert off == Poly()
    assert koszul_check(m) == (True, None)


@pytest.mark.parametrize("label", ALL_GROUPS)
def test_koszul_identity(label):
    assert koszul_check(built(label)[2]) == (True, None)


def test_koszul_check_passes_on_polynomials_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("a passing check reduced a rational function")

    monkeypatch.setattr(molien, "RatFunc", refuse)
    monkeypatch.setattr(exactnum, "poly_gcd", refuse)
    assert koszul_check(built("2T")[2]) == (True, None)


PERTURBED_WITNESSES = {
    "cyclic:2": "(1 + -1/3*t + -2*t^2 + -1/3*t^3 + t^4) / (1 + -2*t^2 + t^4)",
    "bd:2": "(1 + -1/3*t + -1*t^2 + 1/3*t^3 + -1*t^4 + -1/3*t^5 + t^6) "
            "/ (1 + -1*t^2 + -1*t^4 + t^6)",
    "2T": "(1 + -1/3*t + -1*t^4 + 1/3*t^5 + -1*t^6 + -1/3*t^9 + t^10) "
          "/ (1 + -1*t^4 + -1*t^6 + t^10)",
}


@pytest.mark.parametrize("label", sorted(PERTURBED_WITNESSES))
def test_perturbed_e_gives_the_pinned_witness(label):
    got = koszul_check(perturb_e00(built(label)[2]))
    assert got == (False, {"entry": [0, 0], "value": PERTURBED_WITNESSES[label]})


def test_hom_dim_schur_and_examples():
    g, t, _ = built("cyclic:2")
    hd = HomDims(g, t)
    assert hd(0, 0, 0) == 1
    assert hd(0, 1, 0) == 0
    assert hd(0, 0, 2) == 3
    assert hd(0, 1, 1) == 2
    assert hd(0, 1, -4) == 0


# The CLI caps the degree at 12, but shifted heights in the lattice checks
# read Hom dimensions at higher degrees.
SERIES_DEGREE = {"cyclic:12": 24, "bd:6": 24, "2I": 24}


@pytest.mark.parametrize("label", ALL_GROUPS)
def test_hom_dims_match_series_coefficients(label):
    hd = context(label)[3]
    degree = SERIES_DEGREE.get(label, 12)
    for p, row in enumerate(built(label)[2].S):
        for q, entry in enumerate(row):
            series = list(entry.series(degree).coeffs)
            assert [hd(q, p, m) for m in range(degree + 1)] == series
            # V is self-dual, so the dimensions are symmetric.
            assert [hd(p, q, m) for m in range(degree + 1)] == series


# dim Hom(W_i, Sym^12 V* (x) W_j) on 2I, in character table order.
HOM_DIMS_2I_DEGREE_12 = [
    [1, 0, 0, 1, 0, 0, 1, 1, 0],
    [0, 2, 1, 0, 0, 2, 0, 0, 2],
    [0, 1, 1, 0, 0, 1, 0, 0, 3],
    [1, 0, 0, 3, 2, 0, 2, 3, 0],
    [0, 0, 0, 2, 2, 0, 3, 3, 0],
    [0, 2, 1, 0, 0, 4, 0, 0, 5],
    [1, 0, 0, 2, 3, 0, 4, 4, 0],
    [1, 0, 0, 3, 3, 0, 4, 6, 0],
    [0, 2, 3, 0, 0, 5, 0, 0, 8],
]


def test_hom_dims_need_only_the_mckay_matrix(monkeypatch):
    g, t, _ = built("2I")
    hd = HomDims(g, t)
    assert hd(0, 0, 0) == 1

    def refuse(*args):
        raise AssertionError("a Hom dimension used cyclotomic arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(CycloNum, name, refuse)
    assert [[hd(i, j, 12) for j in range(t.count)]
            for i in range(t.count)] == HOM_DIMS_2I_DEGREE_12
    monkeypatch.undo()

    # The constructor builds nothing; the first query builds N, once.
    tables = []

    def counted(table, group):
        tables.append(table)
        return mckay_matrix(table, group)

    monkeypatch.setattr(molien, "mckay_matrix", counted)
    hd = HomDims(g, t)
    assert tables == []
    assert (hd(0, 0, 12), hd(8, 8, 6)) == (1, 4)
    assert tables == [t]


def test_e_matrix_encodes_multiplicities():
    for label in ("cyclic:4", "bd:2", "2T"):
        g, t, m = built(label)
        graph = mckay_graph(g, t)
        for q in range(t.count):
            for r in range(t.count):
                coeffs = list(m.E[q][r].coeffs) + [0, 0, 0]
                assert coeffs[0] == (1 if q == r else 0)
                assert coeffs[1] == graph.n[q][r]
                assert coeffs[2] == (1 if q == r else 0)


def test_graded_dims_by_height():
    g, t, _ = built("cyclic:2")
    hd = HomDims(g, t)
    graph = mckay_graph(g, t)
    h = HeightFunction(graph, (0, 1))
    assert graded_dim_Bh(hd, h, 0, 0, 0) == 1
    assert graded_dim_Bh(hd, h, 0, 1, 0) == 0
    assert graded_dim_Bh(hd, h, 0, 1, 1) == 2
    assert graded_dim_Bh(hd, h, 0, 0, 2) == 3
    # Degree parity that cannot be written as h(j) + 2d - h(i) gives zero.
    assert graded_dim_Bh(hd, h, 0, 1, 2) == 0
