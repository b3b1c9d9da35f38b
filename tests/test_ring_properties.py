"""Property tests: the ring axioms, with structural ==, for every ring of the package.

The + and * of GW(k), GW(k)(alpha), the Tate ring, Q[x, y] and truncated
power series are all sparse sums with zeros dropped (``fields.linear_sum``),
so each is checked for associativity, commutativity, distributivity, both
identities and a - a == 0.  A sum that kept a zero coefficient would break
the last of these structurally, even where it is the same element.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from arithdt.fields import QQ, finite_field  # noqa: E402
from arithdt.gw import GwElement  # noqa: E402
from arithdt.gwalpha import GwAlphaElement  # noqa: E402
from arithdt.motivic import MOTIVIC_RING, MotivicClass  # noqa: E402
from arithdt.multipoly import MultiPoly  # noqa: E402
from arithdt.series import INT_RING, TruncatedSeries  # noqa: E402

F5 = finite_field(5)
Q_REPS = (1, -1, 2, -2, 3, -3, 5, 6, -7, 12, -18, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 9))
F5_REPS = (1, 2, 3, 4, 6, 7, 8, 9, -1, -2)
VARIABLES = ("x", "y")
MULTIPLICITIES = st.integers(-3, 3)


def gw_elements(field, reps):
    return st.lists(st.tuples(st.sampled_from(reps), MULTIPLICITIES), max_size=5).map(
        lambda terms: GwElement(field, terms)
    )


tate_classes = st.lists(st.tuples(st.integers(-6, 6), MULTIPLICITIES), max_size=5).map(MotivicClass)
polynomials = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(-3, 3, max_denominator=3),
    max_size=5,
).map(lambda terms: MultiPoly(VARIABLES, terms))


def series(ring, coefficients, order):
    return st.lists(coefficients, min_size=order + 1, max_size=order + 1).map(
        lambda coeffs: TruncatedSeries(ring, order, coeffs)
    )


# name -> (elements, zero, one)
RINGS = {
    "gw-Q": (gw_elements(QQ, Q_REPS), GwElement.zero(QQ), GwElement.one(QQ)),
    "gw-F5": (gw_elements(F5, F5_REPS), GwElement.zero(F5), GwElement.one(F5)),
    "gw-alpha-Q": (
        st.builds(GwAlphaElement, gw_elements(QQ, Q_REPS), gw_elements(QQ, Q_REPS)),
        GwAlphaElement.zero(QQ),
        GwAlphaElement.one(QQ),
    ),
    "tate": (tate_classes, MotivicClass.zero(), MotivicClass.one()),
    "multipoly": (polynomials, MultiPoly.zero(VARIABLES), MultiPoly.constant(VARIABLES, 1)),
    "series-Z": (
        series(INT_RING, st.integers(-4, 4), 5),
        TruncatedSeries.zero(INT_RING, 5),
        TruncatedSeries.one(INT_RING, 5),
    ),
    "series-motivic": (
        series(MOTIVIC_RING, tate_classes, 3),
        TruncatedSeries.zero(MOTIVIC_RING, 3),
        TruncatedSeries.one(MOTIVIC_RING, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ring_axioms(name, data):
    elements, zero, one = RINGS[name]
    a, b, c = data.draw(elements), data.draw(elements), data.draw(elements)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + zero == a == zero + a
    assert a * one == a == one * a
    assert a - a == zero


def _general_product(x, y):
    """x * y with every pair of terms summed by the constructor's canonical sum."""

    def pairs(s, t):
        return [(e1 + e2, c1 * c2) for e1, c1 in s for e2, c2 in t]

    extras = [(n, pairs(t, y.u_terms)) for n, t in x.extras]
    extras += [(n, pairs(t, x.u_terms)) for n, t in y.extras]
    return MotivicClass(pairs(x.u_terms, y.u_terms), extras)


u_pairs = st.lists(st.tuples(st.integers(-6, 6), MULTIPLICITIES), max_size=5)
extras_parts = st.lists(st.tuples(st.sampled_from(("SpecC", "SpecQ(sqrt(2))")), u_pairs), max_size=2)


@settings(max_examples=150, deadline=None)
@given(
    terms=u_pairs,
    extras=extras_parts,
    monomial=st.tuples(st.integers(-9, 9), st.integers(-4, 4).filter(bool)),
    monomial_extras=extras_parts,
)
def test_a_product_by_one_term_is_the_general_product(terms, extras, monomial, monomial_extras):
    # a one-term factor, on either side, with negative exponents and coefficients;
    # the extras sit on one side only, as a product of two of them is refused
    a = MotivicClass(terms, extras)
    m = MotivicClass([monomial], () if a.extras else monomial_extras)
    assert len(m.u_terms) == 1
    assert a * m == _general_product(a, m) == m * a
