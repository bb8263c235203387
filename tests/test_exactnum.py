"""Scalar layer: cyclotomic polynomials, field arithmetic, rational
functions and their series coefficients."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mckay.errors import PreconditionError, ResourceLimitError
from mckay.exactnum import (MAX_CONDUCTOR, CycloNum, RatFunc, cyclo_sort_key,
                            cyclotomic_polynomial, euler_phi, trim)
from mckay.verify import ADE_EXPECTATIONS, context
from test_molien import series_of_ratfunc


def truncate(coeffs, degree: int) -> tuple:
    """The terms of degree at most `degree`, without trailing zeros."""
    return trim(coeffs[:degree + 1])


def test_cyclotomic_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def times(a, b):
    """Product of two coefficient lists, over any ring."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_divides_t_n_minus_1():
    # prod_{d | n} Phi_d = t^n - 1 for every n pins each Phi_n, by induction
    # on n, to the cyclotomic polynomial.
    for n in range(1, MAX_CONDUCTOR + 1):
        phi = cyclotomic_polynomial(n)
        assert len(phi) - 1 == euler_phi(n)
        assert all(type(c) is int for c in phi)
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = times(product, cyclotomic_polynomial(d))
        assert product == [-1] + [0] * (n - 1) + [1], n


def test_root_of_unity_squares():
    z4 = CycloNum.root_of_unity(4)
    assert z4 * z4 == -1
    z3 = CycloNum.root_of_unity(3)
    assert z3 + z3 * z3 == -1


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


def test_canonical_form_of_every_table_value_from_lifted_conductors():
    # Every distinct character value and trace of the 20 groups, stored at
    # its minimal conductor, lifted to the exponent of every table holding it,
    # to twice its conductor and to 120; the descent must come back to the
    # stored form.
    values = {}
    for label, _ in ADE_EXPECTATIONS:
        table = context(label)[1]
        for v in [x for row in table.values for x in row] + list(table.defining_values):
            values.setdefault(v, set()).add(table.exponent)
    assert len(values) == 74
    lifts = 0
    for v, exponents in values.items():
        stored = (v.conductor, v.coeffs)
        assert v.canonical() == stored
        for m in sorted(exponents | {2 * v.conductor, 120}):
            if m % v.conductor or m > MAX_CONDUCTOR:
                continue
            lifted = v + CycloNum(m, [0])
            assert lifted.conductor == m
            assert lifted.canonical() == stored
            lifts += 1
    assert lifts == 250


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
    f = RatFunc((1,), (1, -1))
    assert series_of_ratfunc(f, 3) == (1, 1, 1, 1)


def test_series_frozen_example():
    # (1 + t^2) / (1 - t^2)^2, the invariant series of the order-2 group.
    f = RatFunc((1, 0, 1), (1, 0, -2, 0, 1))
    series = series_of_ratfunc(f, 4)
    assert series == (1, 0, 3, 0, 5)
    # Oracle: den * series must reproduce num through the truncation.
    assert truncate(times(f.den, series), 4) == f.num


def test_series_constant_and_pole():
    assert series_of_ratfunc(RatFunc((1,), (1,)), 2) == (1, 0, 0)
    with pytest.raises(PreconditionError):
        series_of_ratfunc(RatFunc((1,), (0, 1)), 2)


def test_series_multiplicativity():
    rng = random.Random(3)
    for _ in range(20):
        f_num = [rng.randint(-2, 2) for _ in range(3)]
        f_den = [1] + [rng.randint(-2, 2) for _ in range(2)]
        g_num = [rng.randint(-2, 2) for _ in range(2)]
        g_den = [1] + [rng.randint(-2, 2) for _ in range(3)]
        left = series_of_ratfunc(RatFunc(times(f_num, g_num), times(f_den, g_den)), 6)
        right = times(series_of_ratfunc(RatFunc(f_num, f_den), 6),
                      series_of_ratfunc(RatFunc(g_num, g_den), 6))
        assert trim(left) == truncate(right, 6)


def test_ratfunc_normal_form():
    a = RatFunc((0, 2), (2, 0, -2))    # 2t / (2 - 2t^2)
    b = RatFunc((0, -1), (-1, 0, 1))   # -t / (t^2 - 1)
    assert a == b
    assert a.den[-1] == 1
    assert len(euclid_gcd(a.num, a.den)) == 1


def fraction_divmod(a, b) -> tuple[tuple, tuple]:
    """Quotient and remainder of Fraction polynomials, b without trailing
    zeros and nonzero."""
    rem = [Fraction(x) for x in a]
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    for k in range(len(rem) - 1, len(b) - 2, -1):
        q = rem[k] / b[-1]
        quot[k - len(b) + 1] = q
        for j, y in enumerate(b):
            rem[k - len(b) + 1 + j] -= q * y
    return trim(quot), trim(rem[:len(b) - 1])


def euclid_gcd(a, b) -> tuple:
    """Monic gcd by Euclid's algorithm on Fraction polynomials."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return tuple(Fraction(c) / a[-1] for c in a)


def euclid_normal_form(num, den) -> tuple[tuple, tuple]:
    """num / den reduced by the Fraction Euclid gcd, the denominator made
    monic: the oracle for the integer normal form."""
    num, den = trim(num), trim(den)
    if not num:
        return (), (1,)
    g = [c * den[-1] for c in euclid_gcd(num, den)]
    return fraction_divmod(num, g)[0], fraction_divmod(den, g)[0]


def random_poly(rng, degree, spread=5) -> list[int]:
    return [rng.randint(-spread, spread) for _ in range(degree + 1)]


def test_ratfunc_normal_form_matches_fraction_euclid():
    rng = random.Random(18)
    shared = [cyclotomic_polynomial(n) for n in (1, 2, 3, 4, 6, 8, 12)]
    pairs = [((), (3, 0, -6)),                # zero numerator
             ((4, -6, 2), (-5,)),             # constant denominator
             ((-6, 0, 6), (9, 0, -9)),        # content 6 and 9
             ((0, -2), (-4, 0, 4))]           # negative leading terms
    for _ in range(200):
        num = random_poly(rng, rng.randint(0, 5))
        den = random_poly(rng, rng.randint(0, 4))
        common = [1]
        for _ in range(rng.randint(0, 3)):
            common = times(common, rng.choice(shared))
        num_scale, den_scale = rng.choice([-12, -3, 2, 5, 30]), rng.choice([1, 4, 7])
        pairs.append(([x * num_scale for x in times(num, common)],
                      [x * den_scale for x in times(den, common)]))
    checked = 0
    for num, den in pairs:
        if not trim(den):
            continue
        got = RatFunc(num, den)
        assert (got.num, got.den) == euclid_normal_form(num, den), (num, den)
        assert not got.num or euclid_gcd(got.num, got.den) == (1,), (num, den)
        checked += 1
    assert checked > 190


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
                   f"a.galois({u})": a.galois(u), "a.conj()": a.conj()}
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
