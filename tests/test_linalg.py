"""One elimination routine for both fields: Q (p = 0) and F_p."""

from __future__ import annotations

from fractions import Fraction

from mckay import linalg


def test_fields_share_pivots_and_kernel_basis():
    mat = [[1, 2, 3, 4], [2, 4, 7, 9], [1, 2, 4, 5]]
    kernel = linalg.nullspace(mat)
    assert kernel == [[-2, 1, 0, 0], [-1, 0, -1, 1]]
    assert all(isinstance(x, Fraction) for v in kernel for x in v)
    for p in (5, 7, 101):
        assert linalg.rref(mat, p)[1] == linalg.rref(mat)[1] == [0, 2]
        assert linalg.nullspace(mat, p) == [[int(x) % p for x in v] for v in kernel]


def test_rank_drops_mod_p():
    mat = [[1, 2], [3, 1]]  # determinant -5
    assert linalg.solve(mat, [1, 1]) == [Fraction(1, 5), Fraction(2, 5)]
    assert linalg.rref(mat, 5)[1] == [0]
    assert linalg.solve(mat, [1, 1], 5) is None
    assert linalg.solve(mat, [1, 3], 5) == [1, 0]
    assert linalg.nullspace(mat, 5) == [[3, 1]]
    assert linalg.inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert linalg.inverse([[2, 0], [0, 1]]) == [[Fraction(1, 2), 0], [0, 1]]
