"""Molien series matrices, the numerical Koszul criterion, and the
equivariant Hom-dimension calculator every later module leans on.

For a 2x2 unimodular g both eigenvalues are determined by the trace, so
det(1 - g^{-1} t) = 1 - tr(g) t + t^2 needs no eigenvalue case analysis at
+-1.  The Molien average for S(t) is taken in exact cyclotomic arithmetic and
must produce plain rationals, which is asserted, never assumed.  E(t) is the
graded character of the exterior algebra of V: Lambda^0 V and Lambda^2 V are
trivial and Lambda^1 V = V, so E(t) = Id + N t + Id t^2 with N the McKay
matrix, and only S is averaged.

Every entry of S(t) is summed over one common denominator
delta(t) = prod_tau (1 - tau t + t^2), one factor per distinct trace tau:
det(1 - g^{-1} t) depends on g only through tr(g), so classes with equal
trace share a factor, and S = P / delta with a polynomial matrix P.  The
Koszul identity S(t) * E(-t) = Id is checked with the denominator cleared,
as P(t) * E(-t) = delta(t) * Id: polynomial products and sums only, and the
same identity because delta is not zero.

Index convention (recorded in output): S[p][q] is the generating function of
dim Hom(W_q, Sym^m V* (x) W_p) taken equivariantly, i.e. the (q, p) entry of
the graded endomorphism algebra; with V self-dual these dimensions are
symmetric in (p, q), so the Koszul identity holds for either reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chartab import CharacterTable
from .errors import ConsistencyError
from .exactnum import CycloNum, Poly, RatFunc, series_of_ratfunc
from .groups import MatrixGroup

S_CONVENTION = ("S[p][q](t) = sum_m dim Hom(W_q, Sym^m V* x W_p)_invariant t^m; "
                "identity checked: S(t) * E(-t) = Id")


class HomDims:
    """dim Hom(W_i, Sym^m V* (x) W_j) over the group invariants, read off the
    McKay matrix N.

    V (x) Sym^{m-1} V = Sym^m V (+) Sym^{m-2} V gives the integer matrices
    H_0 = Id, H_1 = N and H_m = N H_{m-1} - H_{m-2}, memoized by degree.  N
    is read off the table on the first query, so constructing one costs
    nothing; the group adds nothing to what the table holds.
    Negative m gives 0 by convention.
    """

    def __init__(self, group: MatrixGroup, table: CharacterTable):
        self.table = table
        self._by_degree: list[list[list[int]]] = []

    def hom_dim(self, i: int, j: int, m: int) -> int:
        if m < 0:
            return 0
        h = self._by_degree
        if not h:
            n = self.table.mckay_matrix
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
    denominator delta, with rational coefficients after averaging; E(t) =
    Id + N t + Id t^2, a matrix of rational polynomials of degree at most 2."""

    P: tuple[tuple[Poly, ...], ...]
    delta: Poly
    E: tuple[tuple[Poly, ...], ...]

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
            "convention": S_CONVENTION,
            "S": [[str(entry) for entry in row] for row in s],
            "E": [[str(RatFunc.from_poly(entry)) for entry in row] for row in self.E],
            "S_series": [[[str(c) for c in series_of_ratfunc(entry, max_degree)]
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
    """S(t) as the Molien average over the common denominator, one factor
    1 - tau t + t^2 per distinct trace tau: each entry sums the class-size
    weights of the classes of one trace before multiplying by that trace's
    partial product, and is asserted rational; E(t) = Id + N t + Id t^2 read
    off the McKay matrix N."""
    count = table.count
    one = CycloNum.from_rational(1)
    traces = list(dict.fromkeys(table.defining_values))
    slot = [traces.index(tau) for tau in table.defining_values]
    factors = [Poly([one, -tau, one]) for tau in traces]
    k = len(factors)

    # Partial products prod_{s' != s} of the factors for the common denominator.
    prefix = [Poly([one])]
    for factor in factors:
        prefix.append(prefix[-1] * factor)
    suffix = [Poly([one])] * (k + 1)
    for s in range(k - 1, -1, -1):
        suffix[s] = suffix[s + 1] * factors[s]
    partial = [prefix[s] * suffix[s + 1] for s in range(k)]
    denominator = _cyclo_poly_rational(prefix[k])

    inv_order = Fraction(1, group.order)
    weighted = [[size * x for size, x in zip(table.class_sizes, row)]
                for row in table.values]
    conj = [[x.conj() for x in row] for row in table.values]
    p_rows = []
    for p in range(count):
        p_row = []
        for q in range(count):
            by_trace = [0] * k
            for s, x, y in zip(slot, weighted[p], conj[q]):
                by_trace[s] = x * y + by_trace[s]
            num = sum((w * part for w, part in zip(by_trace, partial) if w), Poly())
            p_row.append(_cyclo_poly_rational(num) * inv_order)
        p_rows.append(tuple(p_row))
    n = table.mckay_matrix
    e_rows = tuple(tuple(Poly.rational([int(p == q), n[p][q], int(p == q)])
                         for q in range(count)) for p in range(count))
    matrices = MolienMatrices(P=tuple(p_rows), delta=denominator, E=e_rows)
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
    twice_d = n + values[i] - values[j]
    if twice_d < 0 or twice_d % 2:
        return 0
    return hd.hom_dim(i, j, n)
