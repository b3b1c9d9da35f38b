"""Truncated series: ring laws, division, inverses, coefficient maps."""

import random
from fractions import Fraction

import pytest

from arithdt.errors import ArithdtError, NonUnitError, SeriesMismatchError
from arithdt.fields import CoefficientRing
from arithdt.gaussian import GAUSSIAN_RING
from arithdt.motivic import MOT_ONE, MOTIVIC_RING, MotivicClass, chi_complex
from arithdt.series import INT_RING, TruncatedSeries


def ints(order, terms):
    return TruncatedSeries.from_terms(INT_RING, order, terms)


def test_mul_golden():
    assert (ints(4, {0: 1, 1: 1}) * ints(4, {0: 1, 1: -1})).coeffs == (1, 0, -1, 0, 0)
    a = ints(4, {0: 1, 2: 5, 4: -1})
    assert (a * TruncatedSeries.one(INT_RING, 4)) == a
    assert (ints(4, {0: 1, 1: 1, 2: 1}) * ints(4, {0: 1, 1: -1})).coeffs == (1, 0, 0, -1, 0)


def test_inverse_golden():
    geo = ints(5, {0: 1, 1: -1}).inverse()
    assert geo.coeffs == (1, 1, 1, 1, 1, 1)
    assert TruncatedSeries.one(INT_RING, 5).inverse() == TruncatedSeries.one(INT_RING, 5)
    motivic = TruncatedSeries.from_terms(
        MOTIVIC_RING, 4, {0: MOT_ONE, 1: -MotivicClass.u_power(3)}
    ).inverse()
    assert motivic.coeffs == tuple(MotivicClass.u_power(3 * m) for m in range(5))


def test_inverse_requires_unit():
    with pytest.raises(NonUnitError):
        ints(3, {0: 2}).inverse()
    with pytest.raises(NonUnitError):
        ints(3, {1: 1}).inverse()


def test_powers():
    a = ints(5, {0: 1, 1: 1})
    assert (a**0) == TruncatedSeries.one(INT_RING, 5)
    assert (ints(5, {0: 1, 1: -1}) ** -2).coeffs == (1, 2, 3, 4, 5, 6)
    assert ((a**2) * (a**-2)) == TruncatedSeries.one(INT_RING, 5)


def test_inverse_is_two_sided():
    rng = random.Random(23)
    for _ in range(20):
        coeffs = [1] + [rng.randint(-4, 4) for _ in range(6)]
        a = TruncatedSeries(INT_RING, 6, coeffs)
        inv = a.inverse()
        assert (a * inv) == TruncatedSeries.one(INT_RING, 6)
        assert (inv * a) == TruncatedSeries.one(INT_RING, 6)


def test_division_undoes_multiplication():
    rng = random.Random(37)
    for _ in range(20):
        a = TruncatedSeries(INT_RING, 6, [rng.randint(-4, 4) for _ in range(7)])
        b = TruncatedSeries(INT_RING, 6, [1] + [rng.randint(-4, 4) for _ in range(6)])
        assert (a / b) * b == a
    for _ in range(10):
        a = _random_motivic_series(rng, 5)
        b = _random_motivic_series(rng, 5)
        b = TruncatedSeries(MOTIVIC_RING, 5, (MOT_ONE,) + b.coeffs[1:])
        assert (a / b) * b == a


def test_division_requires_unit_divisor():
    a = ints(3, {0: 1, 1: 2})
    with pytest.raises(NonUnitError):
        a / ints(3, {0: 2, 1: 1})
    with pytest.raises(NonUnitError):
        a / ints(3, {1: 1})
    with pytest.raises(SeriesMismatchError):
        a / ints(4, {0: 1})
    with pytest.raises(SeriesMismatchError):
        a / TruncatedSeries.one(GAUSSIAN_RING, 3)


def test_ring_axioms_random():
    rng = random.Random(29)
    for _ in range(30):
        a, b, c = (
            TruncatedSeries(INT_RING, 5, [rng.randint(-3, 3) for _ in range(6)])
            for _ in range(3)
        )
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_mismatch_errors():
    with pytest.raises(SeriesMismatchError):
        ints(3, {0: 1}) * ints(4, {0: 1})
    with pytest.raises(SeriesMismatchError):
        ints(3, {0: 1}) + TruncatedSeries.one(GAUSSIAN_RING, 3)
    with pytest.raises(ArithdtError):
        TruncatedSeries(INT_RING, 0, [1])
    with pytest.raises(ArithdtError):
        TruncatedSeries(INT_RING, 2, [1, 2])


def _random_motivic_series(rng, order):
    return TruncatedSeries(
        MOTIVIC_RING,
        order,
        [MotivicClass([(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(2)]) for _ in range(order + 1)],
    )


def test_map_coeffs_commutes_with_ring_ops():
    rng = random.Random(31)
    for _ in range(15):
        a = _random_motivic_series(rng, 5)
        b = _random_motivic_series(rng, 5)
        fa = a.map_coeffs(chi_complex, INT_RING)
        fb = b.map_coeffs(chi_complex, INT_RING)
        assert (a * b).map_coeffs(chi_complex, INT_RING) == fa * fb
        assert (a + b).map_coeffs(chi_complex, INT_RING) == fa + fb
    base = TruncatedSeries.from_terms(MOTIVIC_RING, 6, {0: MOT_ONE, 2: MotivicClass.lefschetz()})
    assert (base**-3).map_coeffs(chi_complex, INT_RING) == (
        base.map_coeffs(chi_complex, INT_RING) ** -3
    )


def test_map_identity_and_zero():
    a = ints(4, {0: 1, 3: 7})
    assert a.map_coeffs(lambda c: c, INT_RING) == a
    zero = TruncatedSeries.zero(MOTIVIC_RING, 4)
    assert zero.map_coeffs(chi_complex, INT_RING) == TruncatedSeries.zero(INT_RING, 4)


def test_json():
    a = ints(3, {0: 1, 2: -4})
    data = a.to_json_dict()
    assert data == {"ring": "Z", "order": 3, "coeffs": [1, 0, -4, 0]}


def test_json_writes_a_rational_coefficient_as_its_string():
    # series builds no rational ring and imports no fractions, yet writes a Fraction as "p/q"
    ring = CoefficientRing("Q", Fraction(0), Fraction(1))
    a = TruncatedSeries(ring, 2, [Fraction(1), Fraction(-1, 3), Fraction(0)])
    assert a.to_json_dict() == {"ring": "Q", "order": 2, "coeffs": ["1", "-1/3", "0"]}
