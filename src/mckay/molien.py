"""Molien series matrices, the numerical Koszul criterion, and the
equivariant Hom-dimension calculator every later module leans on.

For a 2x2 unimodular g both eigenvalues are determined by the trace, so
det(1 - g^{-1} t) = 1 - tr(g) t + t^2 needs no eigenvalue case analysis at
+-1.  The Molien average for S(t) is taken on integer vectors in Z[z_L], L
the lcm of the conductors of the character values and the traces (not the
group exponent, which only makes the vectors longer).  `verify_table` checks
sigma_a(chi(c)) = chi(c^a), so sigma_a permutes the classes and the distinct
traces, fixing every coefficient: only the rational coordinate is computed,
|G| P with integer coefficients.  E(t) is the graded character of the
exterior algebra of V: Lambda^0 V and Lambda^2 V are trivial and
Lambda^1 V = V, so E(t) = Id + N t + Id t^2 with N the McKay matrix.

Every entry of S(t) is summed over one common denominator
delta(t) = prod_tau (1 - tau t + t^2), one factor per distinct trace tau:
det(1 - g^{-1} t) depends on g only through tr(g), so classes with equal
trace share a factor, and S = P / delta with a polynomial matrix P.  The
Koszul identity S(t) * E(-t) = Id is checked with the denominator and |G|
cleared, as (|G| P)(t) * E(-t) = |G| delta(t) * Id: integer polynomial
products and sums only, and the same identity because delta is not zero.
delta(0) = 1, so the series coefficients of S follow from P and delta by an
integer recurrence and one division by |G|, exact as they are dimensions.

Index convention (recorded in output): S[p][q] is the generating function of
dim Hom(W_q, Sym^m V* (x) W_p) taken equivariantly, i.e. the (q, p) entry of
the graded endomorphism algebra; with V self-dual these dimensions are
symmetric in (p, q), so the Koszul identity holds for either reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul

from .chartab import CharacterTable
from .errors import ConsistencyError
from .exactnum import CycloNum, RatFunc, cyclo_times, euler_phi, phi_reduce, trim
from .groups import MatrixGroup
from .linalg import matmul

S_CONVENTION = ("S[p][q](t) = sum_m dim Hom(W_q, Sym^m V* x W_p)_invariant t^m; "
                "identity checked: S(t) * E(-t) = Id")


class HomDims:
    """dim Hom(W_i, Sym^m V* (x) W_j) over the group invariants, read off the
    McKay matrix N.

    V (x) Sym^{m-1} V = Sym^m V (+) Sym^{m-2} V gives the integer matrices
    H_0 = Id, H_1 = N and H_m = N H_{m-1} - H_{m-2}, one `linalg.matmul` per
    degree, memoized by degree.  N is read off the table on the first query,
    so constructing one costs nothing; the group adds nothing to what the
    table holds.  Negative m gives 0 by convention.
    """

    def __init__(self, group: MatrixGroup, table: CharacterTable):
        self.table = table
        self._by_degree: list[list[tuple[int, ...]]] = []

    def hom_dim(self, i: int, j: int, m: int) -> int:
        if m < 0:
            return 0
        h = self._by_degree
        if not h:
            n = self.table.mckay_matrix
            h.append([tuple(int(r == c) for c in range(len(n))) for r in range(len(n))])
            h.append(n)
        while len(h) <= m:
            h.append([tuple(a - b for a, b in zip(row, below))
                      for row, below in zip(matmul(h[1], h[-1]), h[-2])])
        return h[m][i][j]

    __call__ = hom_dim


@dataclass(frozen=True)
class MolienMatrices:
    """S(t) = P(t) / delta(t) and E(t) = Id + N t + Id t^2, every
    polynomial an integer coefficient tuple (constant first, no trailing
    zeros).  `P` holds |G| times the numerators of S over the common
    denominator `delta`, so S = P / (|G| delta), with |G| as `order`."""

    P: tuple[tuple[tuple[int, ...], ...], ...]
    delta: tuple[int, ...]
    E: tuple[tuple[tuple[int, ...], ...], ...]
    order: int

    @property
    def count(self) -> int:
        return len(self.P)

    @property
    def S(self) -> tuple[tuple[RatFunc, ...], ...]:
        """The entries of S(t) in normal form, reduced from P and |G| delta
        on each access."""
        den = [self.order * c for c in self.delta]
        return tuple(tuple(RatFunc(num, den) for num in row) for row in self.P)

    def to_json(self, max_degree: int = 6) -> dict:
        return {
            "convention": S_CONVENTION,
            "S": [[str(entry) for entry in row] for row in self.S],
            "E": [[str(RatFunc(entry, (1,))) for entry in row] for row in self.E],
            "S_series": [[list(map(str, _series(num, self.delta, max_degree, self.order)))
                          for num in row] for row in self.P],
        }


def _series(num: list[int], delta: list[int], degree: int, order: int) -> list[int]:
    """Maclaurin coefficients of num / (order delta) at t^0, ..., t^degree.
    Every factor of delta is 1 at t = 0, so only the order divides, once."""
    out, tail = [], delta[1:]
    for k in range(degree + 1):
        out.append((num[k] if k < len(num) else 0) - sum(map(mul, tail, reversed(out))))
    quotients = [divmod(c, order) for c in out]
    if any(r for _, r in quotients):
        raise ConsistencyError("a Molien series coefficient is not an integer")
    return [q for q, _ in quotients]


def _poly_times(f, g, conductor: int) -> list[tuple[int, ...]]:
    """Product of two polynomials with coefficients in Z[z_conductor]."""
    out = [[0] * len(f[0]) for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = [x + y for x, y in zip(out[i + j], cyclo_times(a, b, conductor))]
    return [tuple(c) for c in out]


def molien_matrices(group: MatrixGroup, table: CharacterTable) -> MolienMatrices:
    """S(t) as the Molien average over the common denominator, one factor
    1 - tau t + t^2 per distinct trace tau, taken on integer vectors in
    Z[z_L], L the lcm of the conductors of the values and the traces.  Each
    entry sums the class-size weights of the classes of one trace and pairs
    them with that trace's partial product.  On a table that passed
    `verify_table` every coefficient is rational, so only coordinate 0 of
    the multiplication matrices' columns is added up, at the nonzero
    weights.  E(t) = Id + N t + Id t^2 is read off the McKay matrix N."""
    count = table.count
    conductor = lcm(*(v.conductor for row in (*table.values, table.defining_values)
                      for v in row))
    width = euler_phi(conductor)

    def lift(value: CycloNum) -> tuple[int, ...]:
        if value.den != 1:
            raise ConsistencyError("a character value or trace is not an algebraic integer")
        return value.lifted(conductor)

    per_class = [lift(tau) for tau in table.defining_values]
    traces = list(dict.fromkeys(per_class))
    slot = [traces.index(tau) for tau in per_class]
    one = phi_reduce([1], conductor)
    factors = [[one, tuple(-x for x in tau), one] for tau in traces]
    k = len(factors)

    # Partial products prod_{s' != s} of the factors for the common denominator.
    prefix = [[one]]
    for factor in factors:
        prefix.append(_poly_times(prefix[-1], factor, conductor))
    suffix = [[one]] * (k + 1)
    for s in range(k - 1, -1, -1):
        suffix[s] = _poly_times(suffix[s + 1], factors[s], conductor)
    partial = [_poly_times(prefix[s], suffix[s + 1], conductor) for s in range(k)]
    delta = trim(c[0] for c in prefix[k])

    # Coordinate 0 of z^j c, for each coefficient c of each partial product.
    stacked = [[phi_reduce([0] * j + list(c), conductor)[0] for c in part]
               for part in partial for j in range(width)]

    weighted = [[tuple(size * x for x in lift(v)) for size, v in zip(table.class_sizes, row)]
                for row in table.values]
    conj = [[lift(v.conj()) for v in row] for row in table.values]
    p_rows = []
    for p in range(count):
        p_row = []
        for q in range(count):
            by_trace = [[0] * width for _ in range(k)]
            for s, x, y in zip(slot, weighted[p], conj[q]):
                by_trace[s] = [a + b for a, b in
                               zip(by_trace[s], cyclo_times(x, y, conductor))]
            acc = [0] * len(stacked[0])
            for x, col in zip((x for vec in by_trace for x in vec), stacked):
                if x:
                    acc = [a + x * c for a, c in zip(acc, col)]
            p_row.append(trim(acc))
        p_rows.append(tuple(p_row))
    n = table.mckay_matrix
    e_rows = tuple(tuple(trim([int(p == q), n[p][q], int(p == q)])
                         for q in range(count)) for p in range(count))
    matrices = MolienMatrices(P=tuple(p_rows), delta=delta, E=e_rows, order=group.order)
    _check_degree_zero(matrices)
    return matrices


def _check_degree_zero(matrices: MolienMatrices) -> None:
    scaled0 = matrices.order * matrices.delta[0]
    for p, row in enumerate(matrices.P):
        for q, num in enumerate(row):
            if (num[0] if num else 0) != (scaled0 if p == q else 0):
                raise ConsistencyError("S(0) is not the identity matrix")


def koszul_check(matrices: MolienMatrices):
    """Exact verification that S(t) * E(-t) = Id, checked on integer
    coefficients with the common denominator and |G| cleared, as
    (|G| P)(t) * E(-t) = |G| delta(t) * Id: each entry is a sum of
    integer convolutions.

    Returns (ok, witness); the witness names the first offending entry and
    gives that entry of S(t) * E(-t) as a reduced rational function.
    """
    # Column r of E(-t) as (q, degree, coefficient), nonzero ones only: N is sparse.
    columns = [[(q, j, -c if j % 2 else c) for q, row in enumerate(matrices.E)
                for j, c in enumerate(row[r]) if c] for r in range(matrices.count)]
    target = tuple(matrices.order * c for c in matrices.delta)
    width = sum(max(len(poly) for row in rows for poly in row)
                for rows in (matrices.P, matrices.E))
    for p, p_row in enumerate(matrices.P):
        for r, column in enumerate(columns):
            acc = [0] * width
            for q, j, c in column:
                acc[j:j + len(p_row[q])] = [a + c * x for a, x in zip(acc[j:], p_row[q])]
            if trim(acc) != (target if p == r else ()):
                return False, {"entry": [p, r], "value": str(RatFunc(acc, target))}
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
