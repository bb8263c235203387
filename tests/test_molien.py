"""Molien matrices, the Koszul identity, Hom dimensions, the height regrading."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from mckay import molien
from mckay.errors import ConsistencyError, PreconditionError
from mckay.exactnum import CycloNum, RatFunc, cyclotomic_polynomial, trim
from mckay.chartab import CharacterTable, dixon_character_table
from mckay.groups import build_group, parse_descriptor
from mckay.mckaygraph import mckay_graph
from mckay.molien import HomDims, graded_dim_Bh, koszul_check, molien_matrices
from mckay.heights import HeightFunction
from mckay.verify import ADE_EXPECTATIONS, context

ALL_GROUPS = [label for label, _ in ADE_EXPECTATIONS]


def series_of_ratfunc(f: RatFunc, degree: int) -> tuple[Fraction, ...]:
    """Maclaurin coefficients of a reduced rational function at t^0, ...,
    t^degree, by the Fraction recurrence: the oracle for the series that
    `MolienMatrices.to_json` reads off P and delta on integers.  The
    denominator must not vanish at t = 0.
    """
    den, num = f.den, f.num
    if not den or not den[0]:
        raise PreconditionError("rational function has a pole at t = 0")
    inv0 = Fraction(1) / den[0]
    out = []
    for k in range(degree + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc * inv0)
    return tuple(out)


def times(a, b):
    """Product of two coefficient lists, over any ring."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def plus(*polys) -> tuple:
    """Sum of coefficient lists, without trailing zeros."""
    out = [0] * max(map(len, polys))
    for poly in polys:
        for i, c in enumerate(poly):
            out[i] += c
    return trim(out)


@functools.cache
def built(label):
    """(group, table, Molien matrices) for a descriptor, built once per run."""
    g, t, _, _ = context(label)
    return g, t, molien_matrices(g, t)


def perturb_e00(m):
    """The Molien matrices with t added to E[0][0]."""
    e = [list(row) for row in m.E]
    e[0][0] = plus(e[0][0], (0, 1))
    return dataclasses.replace(m, E=tuple(tuple(row) for row in e))


def test_order_two_molien_entries():
    m = built("cyclic:2")[2]
    assert m.S[0][0] == RatFunc((1, 0, 1), (1, 0, -2, 0, 1))
    assert m.E[0][0] == (1, 0, 1)
    assert m.E[0][1] == (0, 2)


def test_s_at_zero_is_identity():
    for label in ("cyclic:3", "bd:2", "2T"):
        for p, row in enumerate(built(label)[2].S):
            for q, entry in enumerate(row):
                assert series_of_ratfunc(entry, 0)[0] == (1 if p == q else 0)


def test_koszul_identity_by_hand_for_order_two():
    m = built("cyclic:2")[2]
    # S = P / (|G| delta) with delta = (1-t^2)^2: on the diagonal
    # (1+t^2)^2 - 4t^2 = (1-t^2)^2 and off it the cross terms cancel.
    assert m.order == 2
    assert m.delta == (1, 0, -2, 0, 1)
    assert m.P[0][0] == (2, 0, 2)
    assert m.P[0][1] == (0, 4)
    e_neg = [[[c * (-1) ** i for i, c in enumerate(m.E[q][r])] for r in range(2)]
             for q in range(2)]
    diag = plus(times(m.P[0][0], e_neg[0][0]), times(m.P[0][1], e_neg[1][0]))
    off = plus(times(m.P[0][0], e_neg[0][1]), times(m.P[0][1], e_neg[1][1]))
    assert diag == tuple(2 * c for c in m.delta)
    assert off == ()
    assert koszul_check(m) == (True, None)


@pytest.mark.parametrize("label", ALL_GROUPS)
def test_koszul_identity(label):
    assert koszul_check(built(label)[2]) == (True, None)


def test_molien_builds_no_fraction(monkeypatch):
    contexts = [context(label) for label in ALL_GROUPS]

    def refuse(*args, **kwargs):
        raise AssertionError("the Molien route built a Fraction")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    for g, t, _, _ in contexts:
        m = molien_matrices(g, t)
        assert koszul_check(m) == (True, None)
        polys = [entry for row in (*m.P, *m.E) for entry in row] + [m.delta]
        assert all(type(c) is int for poly in polys for c in poly)
        # Every coefficient the document prints is an integer, so printing
        # it builds no Fraction either.
        m.to_json(12)


def test_a_series_coefficient_off_by_a_fraction_is_refused():
    """|G| P[0][0] one more at t^0 puts 1/|G| into S_00's series."""
    m = built("2T")[2]
    p = [list(row) for row in m.P]
    p[0][0] = plus(p[0][0], (1,))
    with pytest.raises(ConsistencyError, match="not an integer"):
        dataclasses.replace(m, P=tuple(map(tuple, p))).to_json(12)


def test_koszul_check_passes_on_polynomials_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("a passing check reduced a rational function")

    monkeypatch.setattr(molien, "RatFunc", refuse)
    assert koszul_check(built("2T")[2]) == (True, None)


def test_molien_route_multiplies_no_cyclotomic_numbers(monkeypatch):
    g, t, m = built("2T")
    expected = m.to_json(12)
    fresh = dataclasses.replace(t)  # no McKay matrix cached yet

    def refuse(*args):
        raise AssertionError("the Molien route multiplied cyclotomic numbers")

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(CycloNum, name, refuse)
    again = molien_matrices(g, fresh)
    assert koszul_check(again) == (True, None)
    assert again.to_json(12) == expected


@pytest.mark.parametrize("label, distinct", [("cyclic:12", 7), ("cyclic:60", 31)])
def test_each_distinct_numerator_is_reduced_and_expanded_once(label, distinct, monkeypatch):
    """`to_json` reduces and expands each distinct numerator of P once, and
    `S` afterwards reads the same reductions."""
    g, t = built(label)[:2] if label in ALL_GROUPS else wide(label)
    m = molien_matrices(g, t)
    assert len({num for row in m.P for num in row}) == distinct
    series, reduce, expanded, reduced = molien._series, molien.RatFunc, [], []

    def count_series(num, *args):
        expanded.append(num)
        return series(num, *args)

    def count_reductions(num, den):
        if tuple(den) != (1,):
            reduced.append(tuple(num))
        return reduce(num, den)

    monkeypatch.setattr(molien, "_series", count_series)
    monkeypatch.setattr(molien, "RatFunc", count_reductions)
    m.to_json(12)
    assert m.S == tuple(tuple(reduce(num, [m.order * c for c in m.delta]) for num in row)
                        for row in m.P)
    assert sorted(expanded) == sorted(reduced) == sorted(set(reduced))
    assert len(reduced) == distinct


# The perturbed entry of S(t) * E(-t) is 1 - t S_00(t).
PERTURBED_WITNESSES = {
    "cyclic:2": "(1 + -1*t + -2*t^2 + -1*t^3 + t^4) / (1 + -2*t^2 + t^4)",
    "bd:2": "(1 + -1*t + -1*t^2 + t^3 + -1*t^4 + -1*t^5 + t^6) "
            "/ (1 + -1*t^2 + -1*t^4 + t^6)",
    "2T": "(1 + -1*t + -1*t^4 + t^5 + -1*t^6 + -1*t^9 + t^10) "
          "/ (1 + -1*t^4 + -1*t^6 + t^10)",
}


@pytest.mark.parametrize("label", sorted(PERTURBED_WITNESSES))
def test_perturbed_e_gives_the_pinned_witness(label):
    got = koszul_check(perturb_e00(built(label)[2]))
    assert got == (False, {"entry": [0, 0], "value": PERTURBED_WITNESSES[label]})


def test_a_perturbed_zero_entry_of_e_is_caught():
    """N[0] = (0, 0, 1, 1) on cyclic:4, so E[0][1] is zero; with t added
    there, the check must read the entry from E itself, not from N."""
    m = built("cyclic:4")[2]
    assert m.E[0][1] == ()
    e = [list(row) for row in m.E]
    e[0][1] = (0, 1)
    got = koszul_check(dataclasses.replace(m, E=tuple(tuple(row) for row in e)))
    assert got == (False, {"entry": [0, 1],
                           "value": "(-1*t + -1*t^5) / (1 + -1*t^2 + -1*t^4 + t^6)"})


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
            series = list(series_of_ratfunc(entry, degree))
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
    average = CharacterTable.mckay_matrix.func

    def counted(table):
        tables.append(table)
        return average(table)

    counted_matrix = functools.cached_property(counted)
    counted_matrix.__set_name__(CharacterTable, "mckay_matrix")
    monkeypatch.setattr(CharacterTable, "mckay_matrix", counted_matrix)
    fresh = dataclasses.replace(t)
    hd = HomDims(g, fresh)
    assert tables == []
    assert (hd(0, 0, 12), hd(8, 8, 6)) == (1, 4)
    assert len(tables) == 1 and tables[0] is fresh


def class_average_e(table):
    """E(t) as the class average sum_c |C_c| conj chi_q(c) chi_p(c)
    (1 + tau_c t + t^2) / |G|, with tau_c the trace: the oracle for E."""
    order = sum(table.class_sizes)
    rows = []
    for p in range(table.count):
        row = []
        for q in range(table.count):
            acc = [CycloNum.from_rational(0)] * 3
            for c, size in enumerate(table.class_sizes):
                weight = size * table.values[q][c].conj() * table.values[p][c]
                tau = table.defining_values[c]
                acc = [acc[0] + weight, acc[1] + weight * tau, acc[2] + weight]
            row.append(trim(a.as_rational() / order for a in acc))
        rows.append(tuple(row))
    return tuple(rows)


def test_e_matrix_encodes_multiplicities():
    for label in ALL_GROUPS:
        g, t, m = built(label)
        assert m.E == class_average_e(t), label
        graph = mckay_graph(g, t)
        for q in range(t.count):
            for r in range(t.count):
                coeffs = list(m.E[q][r]) + [0, 0, 0]
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


def integer(value: CycloNum) -> int:
    """A cyclotomic number that must be a rational integer, as an int."""
    q = value.as_rational()
    assert q is not None and q.denominator == 1, value
    return q.numerator


def class_average_s(table):
    """S(t) as the per-class Molien average sum_c |C_c| conj chi_q(c)
    chi_p(c) / ((1 - tau_c t + t^2) |G|) over one factor per class, with
    tau_c the trace, reduced entry by entry: the oracle for S."""
    one = CycloNum.from_rational(1)
    factors = [[one, -tau, one] for tau in table.defining_values]
    # prod_{c' != c} of the factors, from prefix and suffix products.
    prefix, suffix = [[one]], [[one]]
    for a, b in zip(factors, reversed(factors)):
        prefix.append(times(prefix[-1], a))
        suffix.insert(0, times(suffix[0], b))
    partial = [times(a, b) for a, b in zip(prefix, suffix[1:])]
    order = sum(table.class_sizes)
    delta = [order * integer(x) for x in prefix[-1]]
    rows = []
    for p in range(table.count):
        row = []
        for q in range(table.count):
            num = [0]
            for c, size in enumerate(table.class_sizes):
                weight = size * table.values[q][c].conj() * table.values[p][c]
                num = plus(num, [weight * x for x in partial[c]])
            row.append(RatFunc([integer(x) for x in num], delta))
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("label", ALL_GROUPS)
def test_trace_grouped_molien_equals_class_average(label):
    _, t, m = built(label)
    assert m.S == class_average_s(t)


@pytest.mark.parametrize("label", ALL_GROUPS)
def test_delta_has_one_factor_per_trace(label):
    _, t, m = built(label)
    traces = []
    for tau in t.defining_values:
        if tau not in traces:
            traces.append(tau)
    assert len(m.delta) - 1 == 2 * len(traces)
    if label == "cyclic:12":
        # 12 classes, 7 traces: 2 cos(2 pi k / 12) for k = 0, ..., 6.
        assert (len(t.class_sizes), len(m.delta) - 1) == (12, 14)


GOLDEN_MOLIEN = Path(__file__).parent / "golden" / "molien.json"


def molien_record(label):
    """The sha256 of the degree-12 Molien document and the Koszul verdict."""
    m = built(label)[2]
    doc = json.dumps(m.to_json(12), sort_keys=True).encode()
    return {"sha256": hashlib.sha256(doc).hexdigest(), "koszul": koszul_check(m)[0]}


@pytest.mark.parametrize("label", ALL_GROUPS)
def test_molien_document_matches_golden(label):
    golden = json.loads(GOLDEN_MOLIEN.read_text())
    assert molien_record(label) == golden[label]


# sha256 of repr((P, delta)) on groups past the battery, where the Molien
# average runs in Q(z_L) with phi(L) = 16 (L = 60 on bd:15, bd:30 and
# cyclic:60; the last two have 31 distinct traces) and 8 (cyclic:24).
WIDE_CONDUCTOR_PINS = {
    "bd:15": "ce3d581a64e5a8de04aefa60d67fbb63bd8193d2e85fee2ab5c9a2e5f348882e",
    "bd:30": "3a957de3b6e1c8f1179fb39222dc82348dfe9ee676444e6d8c160d0841e71d2d",
    "cyclic:24": "3a38a41cd3adb185d3ba1130d25a367fed8b1c6d8dbe1c535b07c53e7565966d",
    "cyclic:60": "ea944c60b16b20c74892fb2de25f885fc9f8fa06dfc3788dbe442e6d9a89f9ab",
}


@functools.cache
def wide(label):
    """(group, table) for a descriptor past the battery, built once per run."""
    g = build_group(parse_descriptor(label))
    return g, dixon_character_table(g)


@pytest.mark.parametrize("label", sorted(WIDE_CONDUCTOR_PINS))
def test_molien_numerators_on_wide_conductors_are_pinned(label):
    m = molien_matrices(*wide(label))
    digest = hashlib.sha256(repr((m.P, m.delta)).encode()).hexdigest()
    assert digest == WIDE_CONDUCTOR_PINS[label]


# sha256 of the degree-12 Molien document on the two wide groups: the
# battery golden `tests/golden/molien.json` covers only the 20 battery groups.
WIDE_DOCUMENT_PINS = {
    "bd:30": "5e4916725a645a5e164a273eaa831c95eb6647d329a7002ebbd0604f80df5cb2",
    "cyclic:60": "1ba73b77c88da7e49b46417a386a964daa1d623389b0dbf65e9c4c1cc1dd40d0",
}


@pytest.mark.parametrize("label", sorted(WIDE_DOCUMENT_PINS))
def test_molien_documents_on_wide_conductors_are_pinned(label):
    doc = json.dumps(molien_matrices(*wide(label)).to_json(12), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == WIDE_DOCUMENT_PINS[label]


@pytest.mark.parametrize("label", ALL_GROUPS + sorted(WIDE_CONDUCTOR_PINS))
def test_coefficients_fit_the_evaluation_modulus(label, monkeypatch):
    """Every coefficient of |G| P[p][q] is at most |G| d_p d_q 4^(k-1) in
    size and every one of delta at most 4^k, k the distinct traces; the
    modulus the average ran at exceeds twice the larger, with
    Phi_L(omega) = 0 mod ell and omega = 2^b for the least such b."""
    g, t = built(label)[:2] if label in ALL_GROUPS else wide(label)
    evaluation, calls = molien._evaluation, []

    def spy(conductor, bound):
        calls.append((conductor, bound, *evaluation(conductor, bound)))
        return calls[-1][2:]

    monkeypatch.setattr(molien, "_evaluation", spy)
    m = molien_matrices(g, t)
    [(conductor, bound, omega, ell)] = calls
    k = len(set(t.defining_values))
    for p, row in enumerate(m.P):
        for q, num in enumerate(row):
            assert max(map(abs, num), default=0) <= g.order * t.dims[p] * t.dims[q] * 4 ** (k - 1)
    assert max(map(abs, m.delta)) <= 4 ** k
    assert bound == max(g.order * max(t.dims) ** 2 * 4 ** (k - 1), 4 ** k) and ell > 2 * bound
    phi = cyclotomic_polynomial(conductor)
    assert sum(c * omega ** j for j, c in enumerate(phi)) % ell == 0
    assert omega == 2 or abs(sum(c * (omega // 2) ** j for j, c in enumerate(phi))) <= 2 * bound


def with_value(table, row, col, value):
    """The table with one entry of `values` (row, col) or of
    `defining_values` (row None, col) replaced."""
    if row is None:
        traces = list(table.defining_values)
        traces[col] = value
        return dataclasses.replace(table, defining_values=tuple(traces))
    values = [list(r) for r in table.values]
    values[row][col] = value
    return dataclasses.replace(table, values=tuple(map(tuple, values)))


@pytest.mark.parametrize("label", ["cyclic:3", "2T", "bd:2"])
def test_a_trace_that_is_not_an_algebraic_integer_is_refused(label):
    g, t, _ = built(label)
    bad = with_value(t, None, 1, t.defining_values[1] + Fraction(1, 2))
    assert bad.defining_values[1].den == 2
    with pytest.raises(ConsistencyError):
        molien_matrices(g, bad)


if __name__ == "__main__":
    # Regenerate the Molien golden (only when an output change is intended).
    GOLDEN_MOLIEN.write_text(json.dumps({label: molien_record(label) for label in ALL_GROUPS},
                                        indent=1, sort_keys=True) + "\n")
