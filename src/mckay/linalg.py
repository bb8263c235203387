"""Dense exact linear algebra over Q and F_p, and the one exact matrix
product the package uses.

Matrices are lists of row lists.  The field is the argument `p`: 0 means the
rationals (entries are ints or Fractions; results are ints where integral
and Fractions otherwise, all Fractions from `rref` and `inverse`), a prime
means F_p (entries are ints kept in 0..p-1).  Everything here is
deterministic: row echelon pivots are chosen left to right, kernel bases are
parametrized by unit free variables in index order, so repeated runs give
byte-identical output.

Over Q, `rref` eliminates on integer rows, integer-preserving as in Bareiss
(Math. Comp. 22, 1968): each row is scaled by the lcm of its denominators,
a pivot row r clears column c of row i as (a_rc/g)·row_i − (a_ic/g)·row_r
with g = gcd(a_rc, a_ic), and every new row is divided by the gcd of its
entries.  Fractions are built once at the end, each pivot row divided by its
pivot.  The reduced echelon form is unique, so this is the same result as
elimination on Fractions, without an allocation per multiply and subtract.
`rank` counts the pivots of the integer rows and builds no Fraction;
`nullspace` and `solve_many` read each kernel or solution entry off them as
one quotient.  A row of plain ints enters the elimination as it is.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def rref(mat, p: int = 0) -> tuple[list[list], list[int]]:
    """Reduced row echelon form together with the pivot column list, over Q
    when p is 0 and over F_p when p is a prime."""
    a, pivots = _eliminate(mat, p)
    if p:
        return a, pivots
    zero = Fraction(0)
    return ([[Fraction(x, row[c]) if x else zero for x in row]
             for row, c in zip(a, pivots)]
            + [[zero] * len(row) for row in a[len(pivots):]]), pivots


def _eliminate(mat, p):
    """The elimination behind `rref`: over F_p the reduced echelon form,
    over Q the same rows as primitive integer multiples."""
    if p:
        a = [[x % p for x in row] for row in mat]
    else:
        a = [_primitive(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        for pivot in range(r, rows):
            if a[pivot][c]:
                break
        else:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        if p:
            inv = pow(pv, -1, p)
            a[r] = [x * inv % p for x in a[r]]
        top = a[r]
        for i in range(rows):
            f = a[i][c]
            if i == r or not f:
                continue
            if p:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], top)]
            else:
                g = gcd(pv, f)
                s, t = pv // g, f // g
                a[i] = _primitive([s * x - t * y for x, y in zip(a[i], top)])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _integer_row(row, den: int = 0) -> list[int]:
    """The row of ints or Fractions times den, by default the lcm of its
    denominators."""
    den = den or lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def integer_rows(rows) -> tuple[int, list[list[int]]]:
    """The lcm L of the denominators of every int or Fraction entry, and the
    rows times L as integers."""
    den = lcm(*[x.denominator for row in rows for x in row])
    return den, [_integer_row(row, den) for row in rows]


def _primitive(row) -> list[int]:
    """The row of ints or Fractions as coprime integers, ints read as they are."""
    try:
        g = gcd(*row)
    except TypeError:  # a Fraction entry: clear the denominators first
        return _primitive(_integer_row(row))
    return [x // g for x in row] if g > 1 else row


def quotient(num: int, den: int) -> int | Fraction:
    """num/den as an int when den divides num, else as a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def matmul(a, b) -> list[tuple]:
    """The exact matrix product a·b, each row of a taken as a combination of
    b's rows (zero coefficients skipped)."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(tuple(acc))
    return out


def rank(mat) -> int:
    """Rank over Q, read off the integer echelon form."""
    return len(_eliminate(mat, 0)[1])


def nullspace(mat, p: int = 0) -> list[list]:
    """Basis of the right kernel, one vector per free column."""
    cols = len(mat[0]) if mat else 0
    a, pivots = _eliminate(mat, p)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for row, piv in zip(a, pivots):
            v[piv] = -row[f] % p if p else quotient(-row[f], row[piv])
        basis.append(v)
    return basis


def solve_many(mat, rhss, p: int = 0) -> list[list] | None:
    """One exact solution of mat·x = b for every right-hand side b in rhss,
    from one elimination with every b appended as a column, or None when any
    of them is inconsistent.  Free variables are zero, and over Q each pivot
    entry is one quotient read off the integer echelon rows."""
    if not mat:
        return [[] for _ in rhss]
    cols = len(mat[0])
    a, pivots = _eliminate([list(row) + [b[i] for b in rhss]
                            for i, row in enumerate(mat)], p)
    if pivots and pivots[-1] >= cols:
        return None
    sols = [[0] * cols for _ in rhss]
    for row, piv in zip(a, pivots):
        for x, b in zip(sols, row[cols:]):
            x[piv] = b if p else quotient(b, row[piv])
    return sols


def inverse(mat) -> list[list[Fraction]] | None:
    n = len(mat)
    aug = [list(row) + [1 if j == i else 0 for j in range(n)]
           for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def primitive_integer_vector(vec) -> list[int]:
    """Scale a rational vector to coprime integers with positive first support."""
    ints = _primitive(_integer_row(vec))
    return [-v for v in ints] if next((v for v in ints if v), 0) < 0 else ints
