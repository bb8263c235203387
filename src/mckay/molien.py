"""Molien series matrices, the numerical Koszul criterion, and the
equivariant Hom-dimension calculator every later module leans on.

For a 2x2 unimodular g both eigenvalues are determined by the trace, so
det(1 - g^{-1} t) = 1 - tr(g) t + t^2 needs no eigenvalue case analysis at
+-1.  The Molien averages are taken in exact cyclotomic arithmetic and must
produce plain rationals, which is asserted, never assumed.

Every entry of S(t) is summed over one common denominator
delta(t) = prod_c det(1 - g_c^{-1} t), so S = P / delta with a polynomial
matrix P.  The Koszul identity S(t) * E(-t) = Id is checked with the
denominator cleared, as P(t) * E(-t) = delta(t) * Id: polynomial products and
sums only, and the same identity because delta is not zero.

Index convention (recorded in output): S[p][q] is the generating function of
dim Hom(W_q, Sym^m V* (x) W_p) taken equivariantly, i.e. the (q, p) entry of
the graded endomorphism algebra; with V self-dual these dimensions are
symmetric in (p, q), so the Koszul identity holds for either reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chartab import CharacterTable
from .errors import ConsistencyError, PreconditionError
from .exactnum import CycloNum, Poly, RatFunc
from .groups import MatrixGroup
from .mckaygraph import mckay_matrix

S_CONVENTION = ("S[p][q](t) = sum_m dim Hom(W_q, Sym^m V* x W_p)_invariant t^m; "
                "identity checked: S(t) * E(-t) = Id")


class HomDims:
    """dim Hom(W_i, Sym^m V* (x) W_j) over the group invariants, read off the
    McKay matrix N.

    V (x) Sym^{m-1} V = Sym^m V (+) Sym^{m-2} V gives the integer matrices
    H_0 = Id, H_1 = N and H_m = N H_{m-1} - H_{m-2}, memoized by degree.  N
    is built on the first query, so constructing one costs nothing.
    Negative m gives 0 by convention.
    """

    def __init__(self, group: MatrixGroup, table: CharacterTable):
        self.group = group
        self.table = table
        self._by_degree: list[list[list[int]]] = []

    def hom_dim(self, i: int, j: int, m: int) -> int:
        if m < 0:
            return 0
        h = self._by_degree
        if not h:
            n = mckay_matrix(self.table, self.group)
            h.append([[int(r == c) for c in range(len(n))] for r in range(len(n))])
            h.append(n)
        n = h[1]
        while len(h) <= m:
            columns = list(zip(*h[-1]))
            h.append([[sum(a * b for a, b in zip(row, col)) - below
                       for col, below in zip(columns, row2)]
                      for row, row2 in zip(n, h[-2])])
        return h[m][i][j]

    __call__ = hom_dim


@dataclass(frozen=True)
class MolienMatrices:
    """S(t) = P(t) / delta(t): P a matrix of polynomials over the common
    denominator delta; E(t): matrix of polynomials of degree at most 2.  All
    have rational coefficients after averaging."""

    P: tuple[tuple[Poly, ...], ...]
    delta: Poly
    E: tuple[tuple[Poly, ...], ...]
    convention: str = S_CONVENTION

    @property
    def count(self) -> int:
        return len(self.P)

    @property
    def S(self) -> tuple[tuple[RatFunc, ...], ...]:
        """The entries of S(t) in normal form, reduced from P and delta on
        each access."""
        return tuple(tuple(RatFunc(num, self.delta) for num in row) for row in self.P)

    def to_json(self, max_degree: int = 6) -> dict:
        s = self.S
        return {
            "convention": self.convention,
            "S": [[str(entry) for entry in row] for row in s],
            "E": [[str(RatFunc.from_poly(entry)) for entry in row] for row in self.E],
            "S_series": [[[str(c) for c in entry.series(max_degree).coeffs]
                          for entry in row] for row in s],
        }


def _cyclo_poly_rational(poly: Poly) -> Poly:
    coeffs = []
    for c in poly.coeffs:
        q = c.as_rational()
        if q is None:
            raise ConsistencyError(
                "cyclotomic parts failed to cancel in a Molien average")
        coeffs.append(q)
    return Poly(coeffs)


def molien_matrices(group: MatrixGroup, table: CharacterTable) -> MolienMatrices:
    """The two Molien averages, summed over conjugacy classes with class-size
    weights over the common denominator, and asserted rational."""
    k = len(table.class_sizes)
    count = table.count
    order = group.order
    chi_v = table.defining_values
    one = CycloNum.from_rational(1)

    # det(1 - g^{-1} t) and det(1 + g t) per class, as cyclotomic polynomials.
    delta = [Poly([one, -chi_v[c], one]) for c in range(k)]
    plus = [Poly([one, chi_v[c], one]) for c in range(k)]

    # Partial products prod_{c' != c} delta_{c'} for the common denominator.
    prefix = [Poly([one])]
    for c in range(k):
        prefix.append(prefix[-1] * delta[c])
    suffix = [Poly([one])] * (k + 1)
    for c in range(k - 1, -1, -1):
        suffix[c] = suffix[c + 1] * delta[c]
    partial = [prefix[c] * suffix[c + 1] for c in range(k)]
    denominator = _cyclo_poly_rational(prefix[k])

    inv_order = Fraction(1, order)
    p_rows = []
    e_rows = []
    for p in range(count):
        p_row = []
        e_row = []
        for q in range(count):
            num = Poly()
            epoly = Poly()
            for c in range(k):
                weight = table.class_sizes[c] * table.values[q][c].conj() * table.values[p][c]
                if weight:
                    num = num + weight * partial[c]
                    epoly = epoly + weight * plus[c]
            p_row.append(_cyclo_poly_rational(num) * inv_order)
            e_entry = _cyclo_poly_rational(epoly) * inv_order
            if e_entry.degree > 2:
                raise ConsistencyError("E entry has degree above 2")
            e_row.append(e_entry)
        p_rows.append(tuple(p_row))
        e_rows.append(tuple(e_row))
    matrices = MolienMatrices(P=tuple(p_rows), delta=denominator, E=tuple(e_rows))
    _check_degree_zero(matrices)
    return matrices


def _check_degree_zero(matrices: MolienMatrices) -> None:
    delta0 = matrices.delta.coeffs[0]
    for p, row in enumerate(matrices.P):
        for q, num in enumerate(row):
            value = num.coeffs[0] if num.coeffs else 0
            if value != (delta0 if p == q else 0):
                raise ConsistencyError("S(0) is not the identity matrix")


def koszul_check(matrices: MolienMatrices):
    """Exact verification that S(t) * E(-t) = Id, checked with the common
    denominator cleared as P(t) * E(-t) = delta(t) * Id.

    Returns (ok, witness); the witness names the first offending entry and
    gives that entry of S(t) * E(-t) as a reduced rational function.
    """
    count = matrices.count
    delta = matrices.delta
    e_neg = [[entry.compose_neg() for entry in row] for row in matrices.E]
    for p in range(count):
        for r in range(count):
            acc = Poly()
            for q in range(count):
                acc = acc + matrices.P[p][q] * e_neg[q][r]
            if acc != (delta if p == r else Poly()):
                return False, {"entry": [p, r], "value": str(RatFunc(acc, delta))}
    return True, None


def graded_dim_Bh(hd: HomDims, height, i: int, j: int, n: int) -> int:
    """The (i, j) block in degree n for the regrading by h(j) + 2d - h(i), as
    computed: hom_dim(i, j, n) when n + h(i) - h(j) is even and nonnegative,
    and 0 otherwise.  The symmetric-power degree read is n itself, not
    d = (n + h(i) - h(j)) / 2.
    """
    values = height.values
    if not height.is_valid():
        raise PreconditionError("invalid height function")
    twice_d = n + values[i] - values[j]
    if twice_d < 0 or twice_d % 2:
        return 0
    return hd.hom_dim(i, j, n)
