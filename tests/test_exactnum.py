"""Scalar layer: cyclotomic polynomials, field arithmetic, rational
functions, truncated series."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mckay.errors import PreconditionError, ResourceLimitError
from mckay.exactnum import (CycloNum, Poly, RatFunc, cyclo_sort_key,
                            cyclotomic_polynomial, euler_phi, poly_gcd,
                            series_of_ratfunc)


def frac_poly(*values) -> Poly:
    return Poly.rational(values)


def truncate(poly: Poly, degree: int) -> Poly:
    """The terms of degree at most `degree`."""
    return Poly(poly.coeffs[:degree + 1])


def test_cyclotomic_small_cases():
    assert cyclotomic_polynomial(1) == frac_poly(-1, 1)
    assert cyclotomic_polynomial(4) == frac_poly(1, 0, 1)


def test_cyclotomic_6_against_division_oracle():
    # Divide t^6 - 1 by the lower cyclotomic polynomials directly.
    poly = frac_poly(*([-1] + [0] * 5 + [1]))
    for d in (1, 2, 3):
        poly, rem = divmod(poly, cyclotomic_polynomial(d))
        assert rem.is_zero()
    assert cyclotomic_polynomial(6) == poly == frac_poly(1, -1, 1)


def test_cyclotomic_divides_t_n_minus_1():
    for n in range(1, 61):
        phi = cyclotomic_polynomial(n)
        assert phi.degree == euler_phi(n)
        assert all(c.denominator == 1 for c in phi.coeffs)
        full = frac_poly(*([-1] + [0] * (n - 1) + [1]))
        _, rem = divmod(full, phi)
        assert rem.is_zero()


def test_root_of_unity_squares():
    z4 = CycloNum.root_of_unity(4)
    assert z4 * z4 == -1
    z3 = CycloNum.root_of_unity(3)
    assert z3 + z3 * z3 == -1


def test_inverse_against_multiply_back():
    x = 1 + CycloNum.root_of_unity(5)
    assert x * x.inv() == 1
    with pytest.raises(ZeroDivisionError):
        CycloNum.from_rational(0).inv()


def test_cross_conductor_arithmetic():
    z4 = CycloNum.root_of_unity(4)
    z6 = CycloNum.root_of_unity(6)
    prod = z4 * z6
    assert prod.conductor == 12
    assert prod == CycloNum.root_of_unity(12, 5)
    assert CycloNum(20, [Fraction(1, 2)]) == Fraction(1, 2)


def test_conductor_bound_is_enforced():
    with pytest.raises(ResourceLimitError):
        CycloNum.root_of_unity(121)
    with pytest.raises(ResourceLimitError):
        CycloNum.root_of_unity(16) * CycloNum.root_of_unity(31)


_CONDUCTORS = (1, 3, 4, 5, 8, 12)


def _random_cyclo(rng: random.Random) -> CycloNum:
    n = rng.choice(_CONDUCTORS)
    return CycloNum(n, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(euler_phi(n))])


def test_field_laws_on_random_triples():
    rng = random.Random(100)
    for _ in range(60):
        a, b, c = (_random_cyclo(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inv() == 1


def test_galois_maps_compose_multiplicatively():
    rng = random.Random(41)
    from math import gcd
    for _ in range(30):
        x = _random_cyclo(rng)
        n = x.conductor
        units = [a for a in range(1, n + 1) if gcd(a, n) == 1]
        a, b = rng.choice(units), rng.choice(units)
        assert x.galois(a).galois(b) == x.galois((a * b) % n or n)


def test_conjugation_is_a_ring_involution():
    rng = random.Random(7)
    for _ in range(40):
        a, b = _random_cyclo(rng), _random_cyclo(rng)
        assert a.conj().conj() == a
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()


def test_canonical_reduction_and_hash_agree():
    z5_at_20 = CycloNum.root_of_unity(20, 4)
    z5 = CycloNum.root_of_unity(5)
    assert z5_at_20 == z5
    assert hash(z5_at_20) == hash(z5)
    assert z5_at_20.canonical()[0] == 5


def test_cyclo_json_round_trip():
    value = CycloNum(12, [Fraction(1, 2), Fraction(-2, 3), 0, 1])
    again = CycloNum.from_json(value.to_json())
    assert again == value


@pytest.mark.parametrize("key", ["-1", "-2", "2", "7", "x", "1.0", " 1", "", "\u0661"])
def test_cyclo_json_rejects_an_index_outside_the_basis(key):
    # Conductor 4 has the basis 1, z4: only "0" and "1" name a coefficient.
    with pytest.raises(PreconditionError, match="coefficient index"):
        CycloNum.from_json({"conductor": 4, "coeffs": {key: "1/1"}})


def test_series_geometric():
    f = RatFunc(frac_poly(1), frac_poly(1, -1))
    assert series_of_ratfunc(f, 3).coeffs == (1, 1, 1, 1)


def test_series_frozen_example():
    # (1 + t^2) / (1 - t^2)^2, the invariant series of the order-2 group.
    f = RatFunc(frac_poly(1, 0, 1), frac_poly(1, 0, -2, 0, 1))
    series = series_of_ratfunc(f, 4)
    assert series.coeffs == (1, 0, 3, 0, 5)
    # Oracle: den * series must reproduce num through the truncation.
    assert truncate(f.den * Poly(series.coeffs), 4) == f.num


def test_series_constant_and_pole():
    assert series_of_ratfunc(RatFunc(frac_poly(1), frac_poly(1)), 2).coeffs == (1, 0, 0)
    with pytest.raises(PreconditionError):
        series_of_ratfunc(RatFunc(frac_poly(1), frac_poly(0, 1)), 2)


def test_series_multiplicativity():
    rng = random.Random(3)
    for _ in range(20):
        f = RatFunc(frac_poly(*(rng.randint(-2, 2) for _ in range(3))),
                    frac_poly(1, *(rng.randint(-2, 2) for _ in range(2))))
        g = RatFunc(frac_poly(*(rng.randint(-2, 2) for _ in range(2))),
                    frac_poly(1, *(rng.randint(-2, 2) for _ in range(3))))
        left = series_of_ratfunc(RatFunc(f.num * g.num, f.den * g.den), 6)
        right = Poly(series_of_ratfunc(f, 6).coeffs) * Poly(series_of_ratfunc(g, 6).coeffs)
        assert Poly(left.coeffs) == truncate(right, 6)


def test_ratfunc_normal_form():
    a = RatFunc(frac_poly(0, 2), frac_poly(2, 0, -2))    # 2t / (2 - 2t^2)
    b = RatFunc(frac_poly(0, -1), frac_poly(-1, 0, 1))   # -t / (t^2 - 1)
    assert a == b
    assert a.den.coeffs[-1] == 1
    assert poly_gcd(a.num, a.den).degree == 0


def test_poly_division_invariants():
    rng = random.Random(17)
    for _ in range(25):
        a = frac_poly(*(rng.randint(-4, 4) for _ in range(6)))
        b = frac_poly(*(rng.randint(-4, 4) for _ in range(3)))
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


# ---------------------------------------------------------------------------
# Golden record of CycloNum arithmetic.  Regenerate (only when an output
# change is intended) with `PYTHONPATH=src python tests/test_exactnum.py`.
# ---------------------------------------------------------------------------

_GOLDEN_CYCLO = Path(__file__).parent / "golden" / "cyclonum.json"
_GOLDEN_CONDUCTORS = (1, 3, 4, 5, 8, 12, 20, 24, 60)


def _golden_operand(rng: random.Random) -> CycloNum:
    n = rng.choice(_GOLDEN_CONDUCTORS)
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.6 else 0
              for _ in range(euler_phi(n))]
    if not any(coeffs):
        coeffs[0] = Fraction(1, 2)
    return CycloNum(n, coeffs)


def _record(value: CycloNum) -> dict:
    return {"json": value.to_json(), "repr": repr(value),
            "key": [str(x) for x in cyclo_sort_key(value)]}


def _golden_cyclo_records() -> list[dict]:
    """Results of every ring operation on 200 seeded pairs over conductors
    up to 60, with non-integral coefficients and mixed conductors."""
    from math import gcd

    rng = random.Random(20240)
    records = []
    for _ in range(200):
        a, b = _golden_operand(rng), _golden_operand(rng)
        n = a.conductor
        u = rng.choice([k for k in range(1, n + 1) if gcd(k, n) == 1])
        results = {"a": a, "b": b, "a+b": a + b, "a-b": a - b, "a*b": a * b,
                   "a/b": a / b, f"a.galois({u})": a.galois(u), "a.conj()": a.conj()}
        entry = {op: _record(v) for op, v in results.items()}
        cn, cc = a.canonical()
        entry["a.canonical()"] = [cn, [str(c) for c in cc]]
        records.append(entry)
    return records


def test_cyclonum_arithmetic_matches_golden_record():
    assert _golden_cyclo_records() == json.loads(_GOLDEN_CYCLO.read_text())


if __name__ == "__main__":
    lines = [json.dumps(r, sort_keys=True) for r in _golden_cyclo_records()]
    _GOLDEN_CYCLO.write_text("[\n" + ",\n".join(lines) + "\n]\n")
