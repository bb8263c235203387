"""Exact scalar arithmetic: rationals, polynomials, reduced rational
functions, truncated power series, and cyclotomic field elements.

Rationals are stdlib ``fractions.Fraction``.  A cyclotomic number is a vector
in the power basis 1, z, ..., z^(phi(N)-1) of Q(z_N), reduced modulo the N-th
cyclotomic polynomial, and stored as integer numerators over one common
denominator in lowest terms, so ring operations run on ints and structural
equality of the stored form is field equality.  Operations on numbers with
different conductors lift both operands to the lcm conductor first; the lcm
is capped (see MAX_CONDUCTOR) because the groups served by this package
never need more.

Polynomials are dense coefficient tuples and are deliberately generic: the
same class is used with Fraction coefficients (rational functions, Hilbert
series) and with CycloNum coefficients (character-weighted averages before
the rational parts are extracted).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError, ResourceLimitError
from . import linalg

#: Largest supported cyclotomic conductor.  The binary icosahedral group needs
#: conductor 20 and exponent 60; 120 leaves margin for lcm unification.
MAX_CONDUCTOR = 120


def euler_phi(n: int) -> int:
    assert n >= 1
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(text: str) -> Fraction:
    return Fraction(text)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial as a dense coefficient tuple (constant first).

    Coefficients may be Fraction or CycloNum; they only need ring operations
    and truthiness for zero tests.  The zero polynomial has an empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def rational(values) -> Poly:
        return Poly([Fraction(v) for v in values])

    @staticmethod
    def one() -> Poly:
        return Poly([Fraction(1)])

    @staticmethod
    def x() -> Poly:
        return Poly([Fraction(0), Fraction(1)])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, c in enumerate(self.coeffs):
                for j, d in enumerate(other.coeffs):
                    prod = c * d
                    out[i + j] = prod if out[i + j] is None else out[i + j] + prod
            return Poly([c if c is not None else Fraction(0) for c in out])
        return Poly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return self * other

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dc = other.coeffs
        dd = other.degree
        lead = dc[-1]
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            if not rem[k]:
                continue
            q = rem[k] / lead
            quot[k - dd] = q
            for j in range(dd + 1):
                rem[k - dd + j] = rem[k - dd + j] - q * dc[j]
        return Poly(quot), Poly(rem[:dd])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, value):
        result = None
        for c in reversed(self.coeffs):
            result = c if result is None else result * value + c
        return result if result is not None else Fraction(0)

    def compose_neg(self) -> Poly:
        """The polynomial p(-t)."""
        return Poly([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            term = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
            parts.append(f"{c}" if i == 0 else f"{c}*{term}")
        return "Poly(" + " + ".join(parts) + ")"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over a field (Fraction coefficients)."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g and g monic."""
    r0, r1 = a, b
    u0, u1 = Poly.one(), Poly()
    v0, v1 = Poly(), Poly.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lead = r0.coeffs[-1]
    inv = 1 / lead
    return r0.monic(), u0 * inv, v0 * inv


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Poly:
    """The n-th cyclotomic polynomial, computed by exact division of t^n - 1
    by the cyclotomic polynomials of the proper divisors of n.
    """
    if n < 1:
        raise PreconditionError("conductor must be a positive integer")
    poly = Poly.rational([-1] + [0] * (n - 1) + [1])
    for d in divisors(n)[:-1]:
        poly, rem = divmod(poly, cyclotomic_polynomial(d))
        assert rem.is_zero()
    return poly


# ---------------------------------------------------------------------------
# Cyclotomic numbers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _phi_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Degree of the n-th cyclotomic polynomial and its nonzero (j, c_j)
    below the leading term; it is monic with integer coefficients."""
    coeffs = cyclotomic_polynomial(n).coeffs
    return len(coeffs) - 1, tuple((j, int(c)) for j, c in enumerate(coeffs[:-1]) if c)


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

    def _lifted(self, m: int) -> tuple[int, ...]:
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
        return m, self._lifted(m), other._lifted(m)

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
        out = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return _make(n, _phi_reduce(out, n), self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> CycloNum:
        """Multiplicative inverse via the extended Euclidean algorithm against
        the conductor's cyclotomic polynomial."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        q = self.as_rational()
        if q is not None:
            return CycloNum(1, [1 / q])
        g, u, _ = poly_ext_gcd(Poly(self.coeffs), cyclotomic_polynomial(self.conductor))
        assert g.degree == 0
        scale = 1 / g.coeffs[0]
        return CycloNum(self.conductor, [c * scale for c in u.coeffs])

    def __truediv__(self, other):
        o = CycloNum._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = CycloNum._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = CycloNum.from_rational(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

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
        value, found by Galois-invariance descent through the divisors."""
        if self._canon is not None:
            return self._canon
        n = self.conductor
        result = (n, self.coeffs)
        for d in divisors(n):
            if d == n:
                break
            stabilizer = [a for a in range(1, n + 1)
                          if gcd(a, n) == 1 and a % d == 1 % d]
            if all(self.galois(a).num == self.num for a in stabilizer):
                basis = [CycloNum.root_of_unity(d, j)._lifted(n)
                         for j in range(euler_phi(d))]
                columns = [[basis[j][row] for j in range(len(basis))]
                           for row in range(len(self.num))]
                sol = linalg.solve(columns, list(self.coeffs))
                assert sol is not None
                result = (d, tuple(sol))
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
            "coeffs": {str(k): format_fraction(c) for k, c in enumerate(coeffs) if c},
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
            vec[int(key)] = parse_fraction(text)
        return CycloNum(n, vec)


def cyclo_sort_key(value: CycloNum):
    """Total order key for cyclotomic numbers (canonical conductor first)."""
    n, coeffs = value.canonical()
    return (n,) + coeffs


# ---------------------------------------------------------------------------
# Rational functions and truncated series
# ---------------------------------------------------------------------------

class RatFunc:
    """Quotient of Fraction polynomials, normalized so the denominator is
    monic and coprime to the numerator; equality is structural.  It has no
    arithmetic: identities between rational functions are checked on
    polynomials with the denominators cleared."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lead = den.coeffs[-1]
            if lead != 1:
                inv = 1 / lead
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def from_poly(p: Poly) -> RatFunc:
        return RatFunc(p, Poly.one())

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def series(self, degree: int) -> TruncSeries:
        return series_of_ratfunc(self, degree)

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"

    def __str__(self):
        def side(p: Poly) -> str:
            if p.is_zero():
                return "0"
            parts = []
            for i, c in enumerate(p.coeffs):
                if not c:
                    continue
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*t" if c != 1 else "t")
                else:
                    parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
            return " + ".join(parts)
        if self.den == Poly.one():
            return side(self.num)
        return f"({side(self.num)}) / ({side(self.den)})"


class TruncSeries:
    """Power series truncated at a fixed degree; coefficients are Fractions."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        if degree < 0:
            raise PreconditionError("truncation degree must be nonnegative")
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != degree + 1:
            raise PreconditionError("coefficient list must have length degree+1")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncSeries({list(self.coeffs)} + O(t^{self.degree + 1}))"


def series_of_ratfunc(f: RatFunc, degree: int) -> TruncSeries:
    """Maclaurin expansion of a rational function through the given degree.

    The denominator must not vanish at t = 0.
    """
    den = f.den.coeffs
    if not den or not den[0]:
        raise PreconditionError("rational function has a pole at t = 0")
    num = f.num.coeffs
    inv0 = 1 / den[0]
    out = []
    for k in range(degree + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc * inv0)
    return TruncSeries(degree, out)
