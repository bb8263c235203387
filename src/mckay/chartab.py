"""Irreducible character tables by Dixon's modular method.

The class-algebra structure constants are computed exactly, the simultaneous
eigenvector problem is solved over F_p for a prime p = 1 (mod exponent) with
p > 2*sqrt(|G|), and the character values are lifted to exact cyclotomic
numbers by Fourier inversion over the power map.  Dixon's bound makes the
lift unique, so the resulting table is independent of the prime; a canonical
row order (trivial character first, then by dimension and lexicographic
values) makes it deterministic.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256

from . import linalg
from .errors import ConsistencyError
from .exactnum import CycloNum, cyclo_sort_key
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
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def dixon_prime(exponent: int, order: int, after: int = 0) -> int:
    """Smallest prime p = 1 (mod exponent) with p^2 > 4*|G| and p > after."""
    p = max(exponent + 1, after + 1, 3)
    while True:
        if p > after and (p - 1) % exponent == 0 and p * p > 4 * order and _is_prime(p):
            return p
        p += 1


def _primitive_root(p: int) -> int:
    m = p - 1
    factors = []
    d, mm = 2, m
    while d * d <= mm:
        if mm % d == 0:
            factors.append(d)
            while mm % d == 0:
                mm //= d
        d += 1
    if mm > 1:
        factors.append(mm)
    for cand in range(2, p):
        if all(pow(cand, m // q, p) != 1 for q in factors):
            return cand
    raise ConsistencyError(f"no primitive root mod {p}")


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

    def value(self, irrep: int, cls: int) -> CycloNum:
        return self.values[irrep][cls]

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
    class_of_mod = {}
    tables = []
    for d, chi_mod in rows:
        values = _lift_row(group, chi_mod, d, eta, p, exponent, class_of_mod)
        tables.append((d, values))

    tables = _canonical_rows(tables, k)
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
    # Restriction R of m to the subspace: m * B = B * R, solved column by column.
    b_cols = [[basis[j][r] for j in range(dim)] for r in range(k)]
    r_cols = []
    for v in basis:
        mv = [sum(m[r][c] * v[c] for c in range(k)) % p for r in range(k)]
        col = linalg.solve(b_cols, mv, p)
        if col is None:
            raise ConsistencyError("class matrix does not stabilize a subspace")
        r_cols.append(col)
    rmat = [[r_cols[j][i] for j in range(dim)] for i in range(dim)]
    pieces = []
    for lam in range(p):
        shifted = [[(rmat[i][j] - (lam if i == j else 0)) % p for j in range(dim)]
                   for i in range(dim)]
        null = linalg.nullspace(shifted, p)
        if null:
            pieces.append([
                [sum(basis[j][r] * v[j] for j in range(dim)) % p for r in range(k)]
                for v in null])
    if sum(len(piece) for piece in pieces) != dim:
        raise ConsistencyError("restricted class matrix is not diagonalizable")
    return pieces


def _lift_row(group, chi_mod, degree, eta, p, exponent, class_of_mod):
    """Lift one character row from F_p to exact cyclotomic values.

    For a representative g of order o, the eigenvalue multiplicities
    m_k of z_o^k satisfy m_k = (1/o) * sum_j chi(g^j) eta_o^{-jk} (mod p)
    and are bounded by the degree, hence uniquely liftable.
    """
    data = group.conjugacy_classes()
    k = data.count
    values = []
    for ci in range(k):
        o = group.element_order(data.reps[ci])
        key = ci
        powers = class_of_mod.get(key)
        if powers is None:
            powers = [group.class_of_power(ci, j) for j in range(o)]
            class_of_mod[key] = powers
        theta = pow(eta, exponent // o, p)
        theta_inv = pow(theta, p - 2, p)
        o_inv = pow(o % p, p - 2, p)
        vec = [Fraction(0)] * exponent
        total = 0
        for kk in range(o):
            acc = 0
            t = 1
            tik = pow(theta_inv, kk, p)
            for j in range(o):
                acc = (acc + chi_mod[powers[j]] * t) % p
                t = (t * tik) % p
            m = (acc * o_inv) % p
            if m > degree:
                raise ConsistencyError("eigenvalue multiplicity exceeds the degree")
            total += m
            if m:
                vec[(kk * (exponent // o)) % exponent] += m
        if total != degree:
            raise ConsistencyError("eigenvalue multiplicities do not sum to the degree")
        values.append(CycloNum(exponent, vec).reduced())
    return values


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
    """Exact soundness checks; raises ConsistencyError on any failure."""
    order = group.order
    k = len(table.class_sizes)
    if sum(d * d for d in table.dims) != order:
        raise ConsistencyError("sum of squared dimensions != |G|")
    for i, row in enumerate(table.values):
        if row[0] != table.dims[i]:
            raise ConsistencyError("character at identity != dimension")
        for v in row:
            n, coeffs = v.canonical()
            if any(c.denominator != 1 for c in coeffs):
                raise ConsistencyError("character value is not an algebraic integer")
    # Row orthogonality.
    for i in range(len(table.dims)):
        for j in range(i, len(table.dims)):
            acc = CycloNum.from_rational(0)
            for c in range(k):
                acc = acc + table.class_sizes[c] * table.values[i][c] * table.values[j][c].conj()
            expected = order if i == j else 0
            if acc != expected:
                raise ConsistencyError(f"row orthogonality fails at ({i}, {j})")
    # Column orthogonality against centralizer orders.
    for a in range(k):
        for b in range(a, k):
            acc = CycloNum.from_rational(0)
            for i in range(len(table.dims)):
                acc = acc + table.values[i][a] * table.values[i][b].conj()
            expected = order // table.class_sizes[a] if a == b else 0
            if acc != expected:
                raise ConsistencyError(f"column orthogonality fails at ({a}, {b})")
    # The defining character must be the matrix trace.
    if table.defining_values != group.traces():
        raise ConsistencyError("stored defining character != matrix traces")


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------

CACHE_ENV = "MCKAY_CACHE_DIR"


def _cache_path(cache_dir: str, descriptor: str, seed: int, version: str) -> str:
    digest = sha256(f"{descriptor}:{seed}:{version}".encode()).hexdigest()[:24]
    return os.path.join(cache_dir, f"chartab-{digest}.json")


def character_table(group: MatrixGroup, seed: int = DEFAULT_SEED,
                    prime: int | None = None,
                    cache_dir: str | None = None) -> CharacterTable:
    """Character table with optional on-disk JSON caching.

    Cache entries are keyed by descriptor, seed and package version; writes are
    atomic (write to a temp file, then rename).  A prime override bypasses
    the cache.
    """
    from . import __version__

    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV)
    use_cache = cache_dir is not None and prime is None
    if use_cache:
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
            except (ValueError, KeyError, ConsistencyError):
                pass
    try:
        table = dixon_character_table(group, seed=seed, prime=prime)
    except ConsistencyError:
        if prime is not None:
            raise
        retry = dixon_prime(group.exponent(), group.order,
                            after=dixon_prime(group.exponent(), group.order))
        table = dixon_character_table(group, seed=seed, prime=retry)
    if use_cache:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(table.to_json(), fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return table
