"""Irreducible character tables by Dixon's modular method.

The class-algebra structure constants are computed exactly, the simultaneous
eigenvector problem is solved over F_p for a prime p = 1 (mod exponent) with
p > 2*sqrt(|G|), and the character values are lifted to exact cyclotomic
numbers by Fourier inversion over the power map.  Dixon's bound makes the
lift unique, so the resulting table is independent of the prime; a canonical
row order (trivial character first, then by dimension and lexicographic
values) makes it deterministic.  `verify_table` and the McKay matrix read
their class sums through the ring map of `exactnum.ring_map`.
"""

from __future__ import annotations

import functools
import json
import os
import random
import tempfile
from dataclasses import dataclass
from hashlib import sha256
from math import gcd, isqrt
from operator import mul

from . import linalg
from .errors import ConsistencyError
from .exactnum import CycloNum, cyclo_sort_key, ring_map, symmetric_residue
from .groups import MatrixGroup

DEFAULT_SEED = 1
_SPLIT_ATTEMPTS = 40


# ---------------------------------------------------------------------------
# Class algebra
# ---------------------------------------------------------------------------

def class_constants(group: MatrixGroup) -> list[list[list[int]]]:
    """Structure constants a[i][j][k] = #{(x, y) in C_i x C_j : xy = z_k}
    for the fixed class representatives z_k.

    Uses the scan a[i][j][k] = #{x in C_i : x^{-1} z_k in C_j}, which needs
    |G| * (#classes) products instead of |G|^2.
    """
    data = group.conjugacy_classes()
    k = data.count
    table = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for x in data.classes[i]:
            xi = group.inverse[x]
            for kk, z in enumerate(data.reps):
                j = data.class_of[group.mul(xi, z)]
                table[i][j][kk] += 1
    return table


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def dixon_prime(exponent: int, order: int, after: int = 0) -> int:
    """Smallest prime p = 1 (mod exponent) with p^2 > 4*|G| and p > after."""
    p = max(exponent + 1, after + 1, 3)
    while True:
        if p > after and (p - 1) % exponent == 0 and p * p > 4 * order and _is_prime(p):
            return p
        p += 1


def _primitive_root(p: int) -> int:
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and _is_prime(q)]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


# ---------------------------------------------------------------------------
# Character table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterTable:
    """Exact character data for a built group.

    Rows are in canonical order: the trivial character at index 0, then
    ascending dimension, ties broken by lexicographic class values.
    `defining_index` is the row equal to the trace character of the ambient
    2-dim matrix action when that action is irreducible (it is reducible for
    the cyclic groups and for bd:1), else None; `defining_values` always
    holds the traces.
    """

    descriptor: str
    dims: tuple[int, ...]
    values: tuple[tuple[CycloNum, ...], ...]
    class_sizes: tuple[int, ...]
    exponent: int
    prime: int
    seed: int
    defining_values: tuple[CycloNum, ...]
    defining_index: int | None

    @property
    def count(self) -> int:
        return len(self.dims)

    @property
    def trivial_index(self) -> int:
        return 0

    @functools.cached_property
    def mckay_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Multiplicities n[i][j] of W_i in V (x) W_j: the class sum of
        chi_j tau conj(chi_i), tau the traces, over |G| = sum of the class
        sizes, computed once per table through `exactnum.ring_map` at the
        exponent.  On a table that passed `verify_table` the sum is a
        rational integer, at most |G| M^2 T in size (M, T the `_largest_norm`
        of the values and of the traces), so it is its symmetric residue."""
        order, k = sum(self.class_sizes), self.count
        bound = order * _largest_norm(*self.values) ** 2 * _largest_norm(self.defining_values)
        ell, image = ring_map(self.exponent, bound)
        traces = [image(tau) for tau in self.defining_values]
        twisted = [[size * image(x) * tau for size, x, tau in
                    zip(self.class_sizes, row, traces)] for row in self.values]
        conj = [[image(x, -1) for x in row] for row in self.values]
        out = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                total = symmetric_residue(sum(map(mul, twisted[j], conj[i])), ell)
                if total < 0 or total % order:
                    raise ConsistencyError(f"multiplicity ({i},{j}) is not a "
                                           f"nonnegative integer: {total} / {order}")
                out[i][j] = out[j][i] = total // order
        return tuple(map(tuple, out))

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "dims": list(self.dims),
            "class_sizes": list(self.class_sizes),
            "exponent": self.exponent,
            "prime": self.prime,
            "seed": self.seed,
            "values": [[v.to_json() for v in row] for row in self.values],
            "defining_values": [v.to_json() for v in self.defining_values],
            "defining_index": self.defining_index,
        }

    @staticmethod
    def from_json(data: dict) -> CharacterTable:
        return CharacterTable(
            descriptor=data["descriptor"],
            dims=tuple(data["dims"]),
            values=tuple(tuple(CycloNum.from_json(v) for v in row)
                         for row in data["values"]),
            class_sizes=tuple(data["class_sizes"]),
            exponent=data["exponent"],
            prime=data["prime"],
            seed=data["seed"],
            defining_values=tuple(CycloNum.from_json(v)
                                  for v in data["defining_values"]),
            defining_index=data["defining_index"],
        )


def dixon_character_table(group: MatrixGroup, seed: int = DEFAULT_SEED,
                          prime: int | None = None) -> CharacterTable:
    data = group.conjugacy_classes()
    k = data.count
    order = group.order
    exponent = group.exponent()
    p = prime if prime is not None else dixon_prime(exponent, order)
    if (p - 1) % exponent or p * p <= 4 * order or not _is_prime(p):
        raise ConsistencyError(f"prime {p} is not valid for this group")

    constants = class_constants(group)
    # Matrix of multiplication by the class sum C_i: (A_i)[j][l] = a[i][j][l].
    class_mats = [[[constants[i][j][l] % p for l in range(k)] for j in range(k)]
                  for i in range(k)]

    vectors = _split_eigenvectors(class_mats, p, seed)
    inv_class = [data.class_of[group.inverse[data.reps[i]]] for i in range(k)]
    size_inv = [pow(s % p, p - 2, p) for s in data.sizes]

    rows = []
    for w in vectors:
        w0_inv = pow(w[0], p - 2, p)
        omega = [(x * w0_inv) % p for x in w]
        s = sum(omega[i] * omega[inv_class[i]] * size_inv[i] for i in range(k)) % p
        d = _degree_from_square(order, s, p)
        chi_mod = [(d * omega[i] * size_inv[i]) % p for i in range(k)]
        rows.append((d, chi_mod))

    eta = pow(_primitive_root(p), (p - 1) // exponent, p)
    powers = group.power_classes()
    tables = _canonical_rows([(d, _lift_row(chi_mod, d, eta, p, exponent, powers))
                              for d, chi_mod in rows], k)
    dims = tuple(t[0] for t in tables)
    values = tuple(tuple(t[1]) for t in tables)

    defining = group.traces()
    defining_index = next((i for i, row in enumerate(values) if row == defining), None)

    table = CharacterTable(
        descriptor=group.descriptor.label,
        dims=dims,
        values=values,
        class_sizes=data.sizes,
        exponent=exponent,
        prime=p,
        seed=seed,
        defining_values=defining,
        defining_index=defining_index,
    )
    verify_table(table, group)
    return table


def _degree_from_square(order: int, s: int, p: int) -> int:
    d_sq = (order * pow(s, p - 2, p)) % p
    limit = int(order ** 0.5) + 1
    for d in range(1, limit + 1):
        if (d * d) % p == d_sq and d * d <= order:
            return d
    raise ConsistencyError("no character degree matches the eigenvalue data")


def _split_eigenvectors(class_mats, p, seed):
    """Common eigenvectors of the commuting class matrices over F_p.

    Random F_p-combinations of the class matrices split the space; the class
    algebra is split semisimple for a valid Dixon prime, so every subspace
    decomposes into eigenspaces and the iteration terminates at dimension one.
    """
    k = len(class_mats)
    rng = random.Random(seed)
    subspaces = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    # a subspace is a list of basis column-vectors
    done = []
    attempts = 0
    while subspaces:
        attempts += 1
        if attempts > _SPLIT_ATTEMPTS:
            raise ConsistencyError(
                "eigenspace splitting did not terminate; retry with the next prime")
        coeffs = [rng.randrange(p) for _ in range(k)]
        m = [[sum(coeffs[i] * class_mats[i][r][c] for i in range(k)) % p
              for c in range(k)] for r in range(k)]
        next_round = []
        for basis in subspaces:
            for sub in _split_once(m, basis, p):
                if len(sub) == 1:
                    done.append(sub[0])
                else:
                    next_round.append(sub)
        subspaces = next_round
    if len(done) != k:
        raise ConsistencyError("eigenvector count does not match class count")
    return done


def _split_once(m, basis, p):
    k = len(m)
    dim = len(basis)
    # Restriction R of m to the subspace: m * B = B * R, every column of R
    # from one elimination.
    b_cols = [[basis[j][r] for j in range(dim)] for r in range(k)]
    r_cols = linalg.solve_many(b_cols, [[sum(m[r][c] * v[c] for c in range(k)) % p
                                         for r in range(k)] for v in basis], p)
    if r_cols is None:
        raise ConsistencyError("class matrix does not stabilize a subspace")
    rmat = [[r_cols[j][i] for j in range(dim)] for i in range(dim)]
    pieces = []
    for lam in _eigenvalues(rmat, p):
        shifted = [[(rmat[i][j] - (lam if i == j else 0)) % p for j in range(dim)]
                   for i in range(dim)]
        pieces.append([
            [sum(basis[j][r] * v[j] for j in range(dim)) % p for r in range(k)]
            for v in linalg.nullspace(shifted, p)])
    if sum(len(piece) for piece in pieces) != dim:
        raise ConsistencyError("restricted class matrix is not diagonalizable")
    return pieces


def _eigenvalues(mat, p):
    """The roots in F_p, ascending, of the characteristic polynomial of a
    square matrix over F_p, in O(n^3) (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9): elementary similarities over F_p
    bring the matrix to Hessenberg form H, and the characteristic
    polynomials of H's leading m x m blocks follow the recurrence
    p_m = (X - h_mm) p_(m-1) - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_(i-1).
    Nothing is divided by an integer, so any n works for any p."""
    n = len(mat)
    h = [[x % p for x in row] for row in mat]
    for m in range(1, n - 1):
        for i in range(m, n):
            if h[i][m - 1]:
                break
        else:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        inv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:  # row i -= u row m, then column m += u column i
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]  # polys[m]: lowest coefficient first, of the leading m x m block
    for m in range(n):
        prev = polys[m]
        poly = [0] + prev
        for j, c in enumerate(prev):
            poly[j] = (poly[j] - h[m][m] * c) % p
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            c = t * h[i][m] % p
            for j, x in enumerate(polys[i]):
                poly[j] = (poly[j] - c * x) % p
        polys.append(poly)
    coeffs = polys[n][::-1]
    return [lam for lam in range(p)
            if not functools.reduce(lambda acc, c: (acc * lam + c) % p, coeffs, 0)]


def _lift_row(chi_mod, degree, eta, p, exponent, powers):
    """Lift one character row from F_p to exact cyclotomic values.

    For a representative g of order o, the eigenvalue multiplicities
    m_k of z_o^k satisfy m_k = (1/o) * sum_j chi(g^j) eta_o^{-jk} (mod p)
    and are bounded by the degree, hence uniquely liftable; the value is
    chi(g) = sum_k m_k z_o^k, with powers the group's `power_classes`.
    """
    values = []
    for classes in powers:
        o = len(classes)
        theta = pow(eta, exponent // o, p)
        theta_inv = pow(theta, p - 2, p)
        o_inv = pow(o % p, p - 2, p)
        mults = []
        for kk in range(o):
            acc = 0
            t = 1
            tik = pow(theta_inv, kk, p)
            for j in range(o):
                acc = (acc + chi_mod[classes[j]] * t) % p
                t = (t * tik) % p
            m = (acc * o_inv) % p
            if m > degree:
                raise ConsistencyError("eigenvalue multiplicity exceeds the degree")
            mults.append(m)
        if sum(mults) != degree:
            raise ConsistencyError("eigenvalue multiplicities do not sum to the degree")
        values.append(_class_value(o, tuple(mults)))
    return values


@functools.lru_cache(maxsize=None)
def _class_value(order, mults):
    """sum_k mults[k] z_order^k at its minimal conductor.  Built at the
    element's order, not the group exponent, so the Galois descent scans
    fewer divisors; the canonical form is unique, so the value is the same.
    A pure function, so the memo serves later tables and primes too."""
    return CycloNum(order, mults).reduced()


def _canonical_rows(tables, num_classes):
    one = CycloNum.from_rational(1)
    trivial_row = tuple([one] * num_classes)

    def key(entry):
        d, values = entry
        return (d, tuple(cyclo_sort_key(v) for v in values))

    trivial = [t for t in tables if tuple(t[1]) == trivial_row]
    if len(trivial) != 1:
        raise ConsistencyError("trivial character missing from the table")
    rest = sorted((t for t in tables if tuple(t[1]) != trivial_row), key=key)
    return [(trivial[0][0], list(trivial_row))] + [(d, list(v)) for d, v in rest]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_table(table: CharacterTable, group: MatrixGroup) -> None:
    """Exact soundness checks; raises ConsistencyError on any failure.

    The row relation sum_c |c| chi_i(c) conj(chi_j(c)) = |G| [i = j] is read
    through the ring map Z[z_N] -> Z/ell of `exactnum.ring_map`, N the
    exponent, which refuses a value off Z[z_N]; a ring map preserves
    equality, so a residue that differs refuses the table.  Orthogonality is
    blind to column order; sigma_a(chi(c)) = chi(c^a) is not.  It is checked
    for a in a generating set of (Z/N)^x, which implies every unit as
    sigma_ab = sigma_a sigma_b and (c^b)^a = c^(ab): so every class-weighted
    sum of the table is Galois-fixed, hence a rational integer, at most
    |G| M^2 in size, M the `_largest_norm` of the values (the table is
    outside input: its dims bound nothing).  ell exceeds twice that, so a
    residue that matches is the exact identity.  With one row per class the
    relation reads X D X* = |G| I, D the class sizes, so X* X = |G| D^-1:
    the column relation."""
    order, n, k = group.order, table.exponent, len(table.class_sizes)
    if sum(d * d for d in table.dims) != order:
        raise ConsistencyError("sum of squared dimensions != |G|")
    for i, row in enumerate(table.values):
        if len(row) != k:
            raise ConsistencyError("a character row does not have one value per class")
        if row[0] != table.dims[i]:
            raise ConsistencyError("character at identity != dimension")
    ell, image = ring_map(n, order * _largest_norm(*table.values) ** 2)
    weighted = [[size * image(v) for size, v in zip(table.class_sizes, row)]
                for row in table.values]
    conj = [[image(v, -1) for v in row] for row in table.values]
    for i, row in enumerate(weighted):
        for j in range(i, len(conj)):
            if sum(map(mul, row, conj[j])) % ell != (order if i == j else 0):
                raise ConsistencyError(f"row orthogonality fails at ({i}, {j})")
    if len(table.values) != k:
        raise ConsistencyError("the table does not have one row per class")
    if table.defining_values != group.traces():
        raise ConsistencyError("stored defining character != matrix traces")
    if (table.class_sizes, n) != (group.conjugacy_classes().sizes, group.exponent()):
        raise ConsistencyError("class sizes or exponent != the group's")
    powers, reached = group.power_classes(), {1}
    for a in range(2, n):  # a generating set of (Z/N)^x, least units first
        if gcd(a, n) > 1 or a in reached:
            continue
        reached = {h * pow(a, j, n) % n for h in reached for j in range(n)}
        for i, row in enumerate(table.values):
            for c, classes in enumerate(powers):
                if row[c].galois(a) != row[classes[a % len(classes)]]:
                    raise ConsistencyError(f"Galois action fails: sigma_{a} of row {i} "
                                           f"at class {c} != its value at class {c}^{a}")


def _largest_norm(*rows) -> int:
    """The largest l1 norm of the power-basis numerators of the values in
    the rows, a bound on the size of each under every complex embedding."""
    return max((sum(map(abs, v.num)) for row in rows for v in row), default=0)


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------

CACHE_ENV = "MCKAY_CACHE_DIR"


def _cache_path(cache_dir: str, descriptor: str, seed: int, version: str) -> str:
    digest = sha256(f"{descriptor}:{seed}:{version}".encode()).hexdigest()[:24]
    return os.path.join(cache_dir, f"chartab-{digest}.json")


def character_table(group: MatrixGroup, seed: int = DEFAULT_SEED,
                    cache_dir: str | None = None) -> CharacterTable:
    """Character table with optional on-disk JSON caching.

    Cache entries are keyed by descriptor, seed and package version; writes are
    atomic (write to a temp file, then rename).  A cache that cannot be read
    or written is skipped, so the table is computed all the same.
    """
    from . import __version__

    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir is not None:
        path = _cache_path(cache_dir, group.descriptor.label, seed, __version__)
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
                if data.get("descriptor") == group.descriptor.label and \
                        data.get("seed") == seed:
                    table = CharacterTable.from_json(data)
                    verify_table(table, group)
                    return table
            except Exception:  # the entry is outside input: whatever fails
                pass  # to read, parse or verify it is a miss
    try:
        table = dixon_character_table(group, seed=seed)
    except ConsistencyError:
        retry = dixon_prime(group.exponent(), group.order,
                            after=dixon_prime(group.exponent(), group.order))
        table = dixon_character_table(group, seed=seed, prime=retry)
    if cache_dir is not None:
        tmp = None
        try:
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(table.to_json(), fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            pass  # an unwritable cache loses only the reuse; the table stands
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
    return table
