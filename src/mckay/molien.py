"""Molien series matrices, the numerical Koszul criterion, and the
equivariant Hom-dimension calculator every later module leans on.

For a 2x2 unimodular g both eigenvalues are determined by the trace, so
det(1 - g^{-1} t) = 1 - tr(g) t + t^2 needs no eigenvalue case analysis at
+-1.  The Molien average for S(t) is taken through one ring map
Z[z_L] -> Z/ell, z_L -> omega = 2^b and ell = |Phi_L(omega)|, L the lcm of
the conductors of the character values and the traces.  `verify_table`
checks sigma_a(chi(c)) = chi(c^a), so sigma_a permutes the classes and the
distinct traces and fixes every coefficient of |G| P and delta: each is a
rational integer, below ell / 2 in size (`molien_matrices`), so it is its
symmetric residue mod ell.  E(t) is the graded character of the exterior
algebra of V: Lambda^0 V and Lambda^2 V are trivial and Lambda^1 V = V, so
E(t) = Id + N t + Id t^2 with N the McKay matrix.

Every entry of S(t) is summed over one common denominator
delta(t) = prod_tau (1 - tau t + t^2), one factor per distinct trace tau:
det(1 - g^{-1} t) depends on g only through tr(g), so classes with equal
trace share a factor, and S = P / delta with a polynomial matrix P.  The
Koszul identity S(t) * E(-t) = Id is checked with the denominator and |G|
cleared, as (|G| P)(t) * E(-t) = |G| delta(t) * Id: integer polynomial
products and sums only, and the same identity because delta is not zero.
P[q][p] is the complex conjugate of P[p][q], as the traces are real, and
both are rational, so `molien_matrices` computes q >= p only.  delta(0) = 1,
so the series coefficients of S follow from P and delta by an integer
recurrence and one division by |G|, exact as they are dimensions, once per
distinct entry of P.

Index convention (recorded in output): S[p][q] is the generating function of
dim Hom(W_q, Sym^m V* (x) W_p) taken equivariantly, i.e. the (q, p) entry of
the graded endomorphism algebra; with V self-dual these dimensions are
symmetric in (p, q), so the Koszul identity holds for either reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul

from .chartab import CharacterTable
from .errors import ConsistencyError
from .exactnum import CycloNum, RatFunc, cyclotomic_polynomial, trim
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

    @cached_property
    def _reduced(self) -> dict[tuple[int, ...], RatFunc]:
        """Each distinct numerator of P over |G| delta in normal form, reduced
        once: cyclic:12 has 7 distinct among its 144 entries."""
        den = [self.order * c for c in self.delta]
        return {num: RatFunc(num, den) for num in set().union(*self.P)}

    @property
    def S(self) -> tuple[tuple[RatFunc, ...], ...]:
        """The entries of S(t) in normal form, read through `_reduced`."""
        return tuple(tuple(map(self._reduced.__getitem__, row)) for row in self.P)

    def to_json(self, max_degree: int = 6) -> dict:
        """The document, printing and expanding each distinct entry once."""
        text = {num: str(f) for num, f in self._reduced.items()}
        series = {num: list(map(str, _series(num, self.delta, max_degree, self.order)))
                  for num in text}
        e_text = {entry: str(RatFunc(entry, (1,))) for entry in set().union(*self.E)}
        return {
            "convention": S_CONVENTION,
            "S": [[text[num] for num in row] for row in self.P],
            "E": [[e_text[entry] for entry in row] for row in self.E],
            "S_series": [[series[num][:] for num in row] for row in self.P],
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


def _evaluation(conductor: int, bound: int) -> tuple[int, int]:
    """(omega, ell), omega = 2^b for the least b >= 1 with ell = |Phi_L(omega)|
    above 2 bound, L the conductor: Phi_L(omega) = 0 mod ell, so z_L -> omega
    is a ring map Z[z_L] -> Z/ell."""
    phi, b = cyclotomic_polynomial(conductor), 1
    while (ell := abs(sum(c << (b * j) for j, c in enumerate(phi)))) <= 2 * bound:
        b += 1
    return 1 << b, ell


def molien_matrices(group: MatrixGroup, table: CharacterTable) -> MolienMatrices:
    """S(t) as the Molien average over the common denominator, one factor
    1 - tau t + t^2 for each of the k distinct traces tau, through the ring
    map Z[z_L] -> Z/ell of `_evaluation`, L the lcm of the conductors of the
    values and the traces.  Each value, conjugate and trace is mapped once;
    each entry pairs the class-size weights of one trace's classes with its
    partial product delta / (1 - tau t + t^2), packed at a bit width no sum
    of k products of residues reaches, in one integer dot product.  Under
    every complex embedding |tau| <= 2 and |chi_p(c)| <= d_p, so a
    coefficient of |G| P[p][q] is at most |G| d_p d_q 4^(k-1) and one of
    delta at most 4^k.  ell exceeds twice both, so each coefficient, a
    rational integer on a table that passed `verify_table`, is its symmetric
    residue.  Only P[p][q] with q >= p is computed and copied to P[q][p]:
    each tau is real, so P[q][p] is the conjugate of P[p][q], and both are
    rational.  E(t) = Id + N t + Id t^2 is read off the McKay matrix N."""
    conductor = lcm(*(v.conductor for row in (*table.values, table.defining_values)
                      for v in row))
    traces = list(dict.fromkeys(table.defining_values))
    slot, k = [traces.index(tau) for tau in table.defining_values], len(traces)
    omega, ell = _evaluation(conductor, max(group.order * max(table.dims) ** 2, 4) * 4 ** (k - 1))
    powers, half = [pow(omega, j, ell) for j in range(conductor)], ell // 2

    def image(value: CycloNum, sign: int = 1) -> int:
        """The value mod ell, or with sign -1 its complex conjugate."""
        if value.den != 1:
            raise ConsistencyError("a character value or trace is not an algebraic integer")
        step = sign * conductor // value.conductor
        return sum(c * powers[j * step % conductor] for j, c in enumerate(value.num)) % ell

    taus, delta = [image(tau) for tau in traces], [1]
    for tau in taus:
        delta = [(a - tau * b + c) % ell
                 for a, b, c in zip([*delta, 0, 0], [0, *delta, 0], [0, 0, *delta])]
    # delta / (1 - tau t + t^2) by power-series division: both are 1 at t = 0.
    width, packed = (k * ell * ell).bit_length(), []
    for tau in taus:
        quotient = [0, 0]
        for c in delta[:2 * k - 1]:
            quotient.append((c + tau * quotient[-1] - quotient[-2]) % ell)
        packed.append(sum(c << (width * i) for i, c in enumerate(quotient[2:])))
    weighted = [[size * image(v) for size, v in zip(table.class_sizes, row)]
                for row in table.values]
    conj = [[image(v, -1) for v in row] for row in table.values]
    mask, shifts = (1 << width) - 1, range(0, width * (2 * k - 1), width)
    p_rows = [[()] * len(conj) for _ in conj]
    for p, row in enumerate(weighted):
        for q in range(p, len(conj)):
            by_trace = [0] * k
            for s, x, y in zip(slot, row, conj[q]):
                by_trace[s] += x * y
            acc = sum(x % ell * part for x, part in zip(by_trace, packed))
            entry = trim(((acc >> i & mask) + half) % ell - half for i in shifts)
            if (entry[0] if entry else 0) != (group.order if p == q else 0):  # delta(0) = 1
                raise ConsistencyError("S(0) is not the identity matrix")
            p_rows[p][q] = p_rows[q][p] = entry
    e_rows = tuple(tuple(trim([int(p == q), x, int(p == q)]) for q, x in enumerate(row))
                   for p, row in enumerate(table.mckay_matrix))
    return MolienMatrices(P=tuple(map(tuple, p_rows)),
                          delta=trim((c + half) % ell - half for c in delta),
                          E=e_rows, order=group.order)


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
                for j, c in enumerate(row[r]) if c] for r in range(len(matrices.P))]
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
