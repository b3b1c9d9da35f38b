"""Property tests: TruncatedSeries division over Z, Q and the motivic ring.

Division is the one kernel behind inverses, negative powers and every Euler
factor, so it is checked against multiplication and against itself, and the
whole m-th factor of the motivic series against its m linear factors.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from arithdt.fields import CoefficientRing  # noqa: E402
from arithdt.motivic import MOTIVIC_RING, L, MotivicClass, grassmannian_class  # noqa: E402
from arithdt.series import INT_RING, TruncatedSeries  # noqa: E402

FRACTION_RING = CoefficientRing("Q", Fraction(0), Fraction(1))

RINGS = {
    "Z": (INT_RING, st.integers(-4, 4)),
    "Q": (FRACTION_RING, st.fractions(-3, 3, max_denominator=4)),
    "motivic": (
        MOTIVIC_RING,
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), max_size=3).map(MotivicClass),
    ),
}
orders = st.integers(1, 7)


def _series(draw, name, order, unit=False):
    ring, coeff = RINGS[name]
    coeffs = draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
    if unit:
        coeffs[0] = ring.one
    return TruncatedSeries(ring, order, coeffs)


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=orders)
def test_division_undoes_multiplication(name, data, order):
    a = _series(data.draw, name, order)
    b = _series(data.draw, name, order, unit=True)
    assert (a / b) * b == a
    assert (a * b) / b == a


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=orders)
def test_division_by_a_product_is_division_in_turn(name, data, order):
    a = _series(data.draw, name, order)
    b = _series(data.draw, name, order, unit=True)
    c = _series(data.draw, name, order, unit=True)
    assert a / (b * c) == (a / b) / c


def _lefschetz_values(name):
    """L in each ring, and the map from a polynomial in L to that ring."""
    if name == "motivic":
        return st.just((L, lambda cls: cls))
    ring, _ = RINGS[name]
    q_values = st.integers(-3, 3) if name == "Z" else st.fractions(-2, 2, max_denominator=3)

    def evaluate_at(q):
        return lambda cls: sum((c * q ** (e // 2) for e, c in cls.u_terms), ring.zero)

    return q_values.map(lambda q: (q, evaluate_at(q)))


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=st.integers(1, 9), m=st.integers(1, 6))
def test_whole_factor_equals_its_linear_factors(name, data, order, m):
    """prod_{k<m} (1 - L^k x) = sum_j (-1)^j L^{j(j-1)/2} [m choose j]_L x^j, x = c t^m."""
    ring, coeff = RINGS[name]
    q, evaluate = data.draw(_lefschetz_values(name))
    c = data.draw(coeff)
    a = _series(data.draw, name, order)
    whole = {0: ring.one}
    for j in range(1, min(m, order // m) + 1):
        gaussian = evaluate(grassmannian_class(m, j))
        whole[j * m] = (-1) ** j * q ** (j * (j - 1) // 2) * gaussian * c**j
    in_turn = a
    for k in range(m):
        in_turn = in_turn / TruncatedSeries.from_terms(ring, order, {0: ring.one, m: -(q**k * c)})
    assert a / TruncatedSeries.from_terms(ring, order, whole) == in_turn
