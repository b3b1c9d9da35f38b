"""Property tests: chi_complex, chi_real and chi_a1 are ring morphisms."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from arithdt.fields import CC, QQ, RR, finite_field  # noqa: E402
from arithdt.motivic import (  # noqa: E402
    SPEC_C,
    MotivicClass,
    chi_a1,
    chi_complex,
    chi_real,
    quadratic_point_generator,
)

GENERATORS = {
    spec.name: spec
    for spec in (SPEC_C, quadratic_point_generator(-1), quadratic_point_generator(3))
}
FIELDS = (QQ, RR, CC, finite_field(5), finite_field(7))

u_terms = st.lists(st.tuples(st.integers(-9, 9), st.integers(-5, 5)), max_size=6)
tate_classes = u_terms.map(MotivicClass)
classes = st.builds(
    MotivicClass, u_terms, st.dictionaries(st.sampled_from(sorted(GENERATORS)), u_terms, max_size=3)
)
fields = st.sampled_from(FIELDS)


def _specializations(field):
    return (
        lambda m: chi_complex(m, GENERATORS),
        lambda m: chi_real(m, GENERATORS),
        lambda m: chi_a1(m, field, GENERATORS),
    )


@settings(max_examples=150, deadline=None)
@given(classes, classes, fields)
def test_specializations_are_additive(a, b, field):
    for chi in _specializations(field):
        assert chi(a + b) == chi(a) + chi(b)
        assert chi(a - b) == chi(a) - chi(b)


# products of two generator parts are outside the subring, so one factor is Tate
@settings(max_examples=150, deadline=None)
@given(tate_classes, classes, fields)
def test_specializations_are_multiplicative(a, b, field):
    for chi in _specializations(field):
        assert chi(a * b) == chi(a) * chi(b)
