"""Dense exact linear algebra over Q and F_p.

Matrices are lists of row lists.  The field is the argument `p`: 0 means the
rationals (entries become Fraction), a prime means F_p (entries are ints kept
in 0..p-1).  Everything here is deterministic: row echelon pivots are chosen
left to right, kernel bases are parametrized by unit free variables in index
order, so repeated runs give byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def transpose(mat):
    if not mat:
        return []
    return [list(col) for col in zip(*mat)]


def rref(mat, p: int = 0) -> tuple[list[list], list[int]]:
    """Reduced row echelon form together with the pivot column list, over Q
    when p is 0 and over F_p when p is a prime."""
    if p:
        a = [[x % p for x in row] for row in mat]
    else:
        a = [[Fraction(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        if p:
            inv = pow(a[r][c], -1, p)
            a[r] = [x * inv % p for x in a[r]]
            for i in range(rows):
                if i != r and a[i][c]:
                    f = a[i][c]
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        else:
            inv = 1 / a[r][c]
            a[r] = [x * inv for x in a[r]]
            for i in range(rows):
                if i != r and a[i][c]:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(mat) -> int:
    return len(rref(mat)[1])


def nullspace(mat, p: int = 0) -> list[list]:
    """Basis of the right kernel, one vector per free column."""
    cols = len(mat[0]) if mat else 0
    red, pivots = rref(mat, p)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [zero] * cols
        v[f] = one
        for r, piv in enumerate(pivots):
            v[piv] = -red[r][f] % p if p else -red[r][f]
        basis.append(v)
    return basis


def solve(mat, rhs, p: int = 0) -> list | None:
    """One exact solution of mat·x = rhs, or None when inconsistent."""
    if not mat:
        return []
    red, pivots = rref([list(row) + [b] for row, b in zip(mat, rhs)], p)
    cols = len(mat[0])
    if cols in pivots:
        return None
    x = [0 if p else Fraction(0)] * cols
    for r, piv in enumerate(pivots):
        x[piv] = red[r][cols]
    return x


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
    fracs = [Fraction(x) for x in vec]
    denom = 1
    for q in fracs:
        denom = denom * q.denominator // gcd(denom, q.denominator)
    ints = [int(q * denom) for q in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return ints
