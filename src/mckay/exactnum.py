"""Exact scalar arithmetic: rationals, polynomials, reduced rational
functions, and cyclotomic numbers.

Rationals are stdlib ``fractions.Fraction``.  A cyclotomic number is a vector
in the power basis 1, z, ..., z^(phi(N)-1) of Q(z_N), reduced modulo the N-th
cyclotomic polynomial, and stored as integer numerators over one common
denominator in lowest terms, so ring operations run on ints and structural
equality of the stored form is field equality.  Cyclotomic numbers form a
ring here, with no division: every division the package makes is by an
integer (a group order or a class size), which scales the denominator.
Operations on numbers with different conductors lift both operands to the
lcm conductor first; the lcm is capped (see MAX_CONDUCTOR) because the
groups served by this package never need more.

Polynomials are integer coefficient tuples, constant term first, with no
trailing zeros (`trim`); `convolve` multiplies them, for the cyclotomic
products here.  A rational function is built from two integer polynomials
and reduced to its normal form by their gcd from the primitive
pseudo-remainder sequence; its denominator is made monic by dividing by its
leading coefficient, with a Fraction only where that leaves a remainder.

Every class-weighted character sum (a table's row relation, the McKay
matrix, the Molien average) is read through one ring map Z[z_L] -> Z/ell,
`ring_map`, on ints.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm

from .errors import ConsistencyError, PreconditionError, ResourceLimitError
from . import linalg

#: Largest supported cyclotomic conductor.  The binary icosahedral group needs
#: conductor 20 and exponent 60; 120 leaves margin for lcm unification.
MAX_CONDUCTOR = 120


def euler_phi(n: int) -> int:
    assert n >= 1
    return sum(gcd(k, n) == 1 for k in range(1, n + 1))


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# Integer polynomials: coefficient sequences, constant term first
# ---------------------------------------------------------------------------

def trim(coeffs) -> tuple[int, ...]:
    """The coefficients without trailing zeros, the normal form of a
    polynomial; the zero polynomial is ()."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def convolve(a, b) -> list[int]:
    """The product of two polynomials as a coefficient list."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _primitive(a: list[int]) -> list[int]:
    """A nonzero integer polynomial divided by its content."""
    g = gcd(*a)
    return [x // g for x in a]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A remainder of a by b in Z[t], up to a power of b's leading
    coefficient: each step scales a by it before cancelling a's top term."""
    a, db, lead = list(a), len(b) - 1, b[-1]
    while len(a) > db:
        top = a.pop()
        shift = len(a) - db
        a = a if lead == 1 else [x * lead for x in a]
        for j, y in enumerate(b[:-1]):
            a[shift + j] -= top * y
        while a and not a[-1]:
            a.pop()
    return a


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd of two nonzero integer polynomials: Euclid's
    algorithm on pseudo-remainders, each divided by its content (the
    primitive PRS)."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, _primitive(r) if r else []
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[t] for a primitive b that divides a over Q, which by
    Gauss's lemma leaves an integer quotient."""
    a, db, lead = list(a), len(b) - 1, b[-1]
    quot = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        q = a[k] // lead
        quot[k - db] = q
        if q:
            for j, y in enumerate(b):
                a[k - db + j] -= q * y
    return quot


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, computed by exact division of t^n - 1
    by the (monic) cyclotomic polynomials of the proper divisors of n.
    """
    if n < 1:
        raise PreconditionError("conductor must be a positive integer")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        poly = _exact_quotient(poly, cyclotomic_polynomial(d))
    return tuple(poly)


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _phi_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Degree of the n-th cyclotomic polynomial and its nonzero (j, c_j)
    below the leading term; it is monic with integer coefficients."""
    coeffs = cyclotomic_polynomial(n)
    return len(coeffs) - 1, tuple((j, c) for j, c in enumerate(coeffs[:-1]) if c)


def _phi_reduce(vec: list[int], n: int) -> tuple[int, ...]:
    """Reduce an integer coefficient vector in z_n modulo the n-th cyclotomic
    polynomial and pad to length phi(n).  Works in place on `vec`."""
    deg, terms = _phi_terms(n)
    for k in range(len(vec) - 1, deg - 1, -1):
        c = vec[k]
        if c:
            base = k - deg
            for j, p in terms:
                vec[base + j] -= c * p
    if len(vec) < deg:
        vec.extend([0] * (deg - len(vec)))
    return tuple(vec[:deg])


def _check_conductor(n: int) -> None:
    if n < 1:
        raise PreconditionError("conductor must be positive")
    if n > MAX_CONDUCTOR:
        raise ResourceLimitError(f"conductor {n} exceeds supported bound {MAX_CONDUCTOR}")


_set = object.__setattr__


def _store(value: CycloNum, n: int, num, den: int) -> CycloNum:
    """Fill `value` with num/den at conductor n in lowest terms; `num` must
    already be reduced modulo the n-th cyclotomic polynomial."""
    g = gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    _set(value, "conductor", n)
    _set(value, "num", tuple(num))
    _set(value, "den", den)
    _set(value, "_canon", None)
    return value


def _make(n: int, num, den: int) -> CycloNum:
    """Trusted constructor for ring results; builds no Fraction."""
    return _store(object.__new__(CycloNum), n, num, den)


class CycloNum:
    """Element of Q(z_N) in the power basis modulo the N-th cyclotomic
    polynomial.

    A value is stored as `num`, a tuple of phi(N) integers, over `den`, a
    positive integer, in lowest terms: gcd(den, *num) == 1.  Lowest terms is
    unique, and lifting to a multiple conductor keeps it because
    Z[z_M] meets Q(z_N) in Z[z_N]; so comparing (den, num) at a common
    conductor is field equality, and ring operations run on integers.
    `coeffs` is the same vector as Fractions.  Values are immutable; hashing
    goes through a canonical form at the smallest possible conductor, so
    equal values stored at different conductors hash alike.
    """

    __slots__ = ("conductor", "num", "den", "_canon")

    def __init__(self, conductor: int, coeffs):
        _check_conductor(conductor)
        vec = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in vec))
        num = [c.numerator * (den // c.denominator) for c in vec]
        _store(self, conductor, _phi_reduce(num, conductor), den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value) -> CycloNum:
        q = Fraction(value)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> CycloNum:
        """z_n^k."""
        _check_conductor(n)
        k %= n
        vec = [0] * (k + 1)
        vec[k] = 1
        return _make(n, _phi_reduce(vec, n), 1)

    # -- conductor plumbing -------------------------------------------------

    def lifted(self, m: int) -> tuple[int, ...]:
        """`num` rewritten at conductor m (a multiple); `den` is unchanged."""
        if m == self.conductor:
            return self.num
        step = m // self.conductor
        vec = [0] * m
        for k, c in enumerate(self.num):
            if c:
                vec[k * step] = c
        return _phi_reduce(vec, m)

    def _unify(self, other: CycloNum) -> tuple[int, tuple, tuple]:
        a, b = self.conductor, other.conductor
        if a == b:
            return a, self.num, other.num
        m = a * b // gcd(a, b)
        if m > MAX_CONDUCTOR:
            raise ResourceLimitError(
                f"lcm conductor {m} exceeds supported bound {MAX_CONDUCTOR}")
        return m, self.lifted(m), other.lifted(m)

    @staticmethod
    def _coerce(value):
        if isinstance(value, CycloNum):
            return value
        if isinstance(value, (int, Fraction)):
            return _make(1, (value.numerator,), value.denominator)
        return None

    # -- ring operations ----------------------------------------------------

    def _add(self, o: CycloNum, sign: int) -> CycloNum:
        n, a, b = self._unify(o)
        da, db = self.den, o.den
        if da == db:
            return _make(n, [x + sign * y for x, y in zip(a, b)], da)
        g = gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        return _make(n, [x * sa + y * sb for x, y in zip(a, b)], da * sa)

    def __add__(self, other):
        o = CycloNum._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = CycloNum._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o, -1)

    def __rsub__(self, other):
        o = CycloNum._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(self.conductor, [-x for x in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _make(self.conductor, [x * p for x in self.num],
                         self.den * other.denominator)
        if not isinstance(other, CycloNum):
            return NotImplemented
        n, a, b = self._unify(other)
        return _make(n, _phi_reduce(convolve(a, b), n), self.den * other.den)

    __rmul__ = __mul__

    def galois(self, a: int) -> CycloNum:
        """Apply the Galois automorphism z -> z^a (a coprime to the conductor)."""
        n = self.conductor
        if n == 1:
            return self
        if gcd(a, n) != 1:
            raise PreconditionError("galois exponent must be coprime to conductor")
        vec = [0] * n
        for k, c in enumerate(self.num):
            if c:
                vec[(k * a) % n] = c
        return _make(n, _phi_reduce(vec, n), self.den)

    def conj(self) -> CycloNum:
        """Complex conjugation: z -> z^(N-1)."""
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    # -- predicates and canonical form ---------------------------------------

    def __bool__(self):
        return any(self.num)

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction, or None when it is irrational."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def canonical(self) -> tuple[int, tuple[Fraction, ...]]:
        """(conductor, coefficients) at the smallest conductor containing the
        value: for each proper divisor d, ascending, solve for the value on
        the power basis of Q(z_d) lifted to the conductor (read off where that
        basis is invertible) and stop at the first d whose solution
        reproduces every coordinate.  The coordinates are unique."""
        if self._canon is not None:
            return self._canon
        n = self.conductor
        result = (n, self.coeffs)
        num = self.num
        for d in divisors(n)[:-1]:
            basis, rows, inverse, scale = _subfield(d, n)
            x = [sum(a * num[r] for a, r in zip(line, rows)) for line in inverse]
            if all(sum(c * b[k] for c, b in zip(x, basis)) == scale * v
                   for k, v in enumerate(num)):
                result = (d, tuple(Fraction(c, scale * self.den) for c in x))
                break
        _set(self, "_canon", result)
        return result

    def reduced(self) -> CycloNum:
        """An equal value stored at its minimal conductor."""
        n, coeffs = self.canonical()
        return CycloNum(n, coeffs)

    def __eq__(self, other):
        o = CycloNum._coerce(other)
        if o is None:
            return NotImplemented
        _, a, b = self._unify(o)
        return self.den == o.den and a == b

    def __hash__(self):
        n, coeffs = self.canonical()
        return hash(("CycloNum", n, coeffs))

    def __repr__(self):
        if not self:
            return "CycloNum(0)"
        q = self.as_rational()
        if q is not None:
            return f"CycloNum({q})"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*z{self.conductor}^{k}")
        return "CycloNum(" + " + ".join(terms) + ")"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        n, coeffs = self.canonical()
        return {
            "conductor": n,
            "coeffs": {str(k): f"{c.numerator}/{c.denominator}"
                       for k, c in enumerate(coeffs) if c},
        }

    @staticmethod
    def from_json(data: dict) -> CycloNum:
        n = int(data["conductor"])
        _check_conductor(n)
        vec = [Fraction(0)] * euler_phi(n)
        for k, text in data["coeffs"].items():
            key = str(k)
            if not (key.isascii() and key.isdigit() and int(key) < len(vec)):
                raise PreconditionError(
                    f"coefficient index {key!r} is outside 0..{len(vec) - 1}")
            vec[int(key)] = Fraction(text)
        return CycloNum(n, vec)


@functools.lru_cache(maxsize=None)
def _subfield(d: int, n: int):
    """The power basis of Q(z_d) lifted to conductor n, the coordinates on
    which it is invertible, and that inverse as integers over one scale."""
    basis = [CycloNum.root_of_unity(d, j).lifted(n) for j in range(euler_phi(d))]
    rows = linalg.rref(basis)[1]
    inverse = linalg.inverse([[b[r] for b in basis] for r in rows])
    scale = lcm(*(x.denominator for line in inverse for x in line))
    return basis, rows, [[int(x * scale) for x in line] for line in inverse], scale


def cyclo_sort_key(value: CycloNum):
    """Total order key for cyclotomic numbers (canonical conductor first)."""
    n, coeffs = value.canonical()
    return (n,) + coeffs


def ring_map(conductor: int, bound: int):
    """(ell, image) for the ring map Z[z_L] -> Z/ell, z_L -> omega = 2^b for
    the least b >= 1 with ell = |Phi_L(omega)| above 2 bound, L the
    conductor: Phi_L(omega) = 0 mod ell, so the map is well defined, and a
    rational integer below ell / 2 in size is its `symmetric_residue`.
    `image(v)` is v mod ell and `image(v, -1)` the image of v's complex
    conjugate; a value off Z[z_L] is refused."""
    phi, b = cyclotomic_polynomial(conductor), 1
    while (ell := abs(sum(c << (b * j) for j, c in enumerate(phi)))) <= 2 * bound:
        b += 1
    powers = [pow(2, b * j, ell) for j in range(conductor)]

    def image(value: CycloNum, sign: int = 1) -> int:
        if value.den != 1 or conductor % value.conductor:
            raise ConsistencyError(f"{value!r} is not an algebraic integer of Q(z_{conductor})")
        step = sign * conductor // value.conductor
        return sum(c * powers[j * step % conductor] for j, c in enumerate(value.num) if c) % ell
    return ell, image


def symmetric_residue(x: int, ell: int) -> int:
    """The integer of least size congruent to x mod ell."""
    return (x + ell // 2) % ell - ell // 2


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Quotient of two integer polynomials in normal form: the denominator
    monic and coprime to the numerator, both coefficient tuples (constant
    first) of ints, with a Fraction only where a coefficient is not integral.
    The reduction runs on the integers, by the primitive PRS.  Equality is
    structural.  It has no arithmetic: identities between rational functions
    are checked on integer polynomials with the denominators cleared."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        a, b = trim(num), trim(den)
        if not b:
            raise ZeroDivisionError("rational function with zero denominator")
        if not a:
            a, b = (), (1,)
        else:
            # Dividing both sides by their primitive gcd is exact, and
            # dividing by the leading coefficient of what is left of b makes
            # the denominator monic.
            g = _primitive_gcd(a, b)
            a, b = _exact_quotient(a, g), _exact_quotient(b, g)
        lead = b[-1]
        object.__setattr__(self, "num", tuple(linalg.quotient(x, lead) for x in a))
        object.__setattr__(self, "den", tuple(linalg.quotient(x, lead) for x in b))

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        def side(coeffs) -> str:
            if not coeffs:
                return "0"
            parts = []
            for i, c in enumerate(coeffs):
                if not c:
                    continue
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*t" if c != 1 else "t")
                else:
                    parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
            return " + ".join(parts)
        if self.den == (1,):
            return side(self.num)
        return f"({side(self.num)}) / ({side(self.den)})"
