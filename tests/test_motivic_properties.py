"""Property tests: chi_complex, chi_real and chi_a1 are ring morphisms, and every
class an operation returns is in canonical form."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from arithdt.fields import CC, QQ, RR, finite_field  # noqa: E402
from arithdt.gwalpha import SPEC_C  # noqa: E402
from arithdt.motivic import (  # noqa: E402
    MotivicClass,
    chi_a1,
    chi_complex,
    chi_real,
    quadratic_point_generator,
)
from arithdt.nearby import SncData, StratumRecord, nearby_class  # noqa: E402

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


def _is_canonical_terms(terms):
    exponents = [e for e, _ in terms]
    return (type(terms) is tuple and exponents == sorted(set(exponents))
            and all(type(e) is int and type(c) is int and c for e, c in terms))


def _is_canonical(m):
    names = [n for n, _ in m.extras]
    return (_is_canonical_terms(m.u_terms) and type(m.extras) is tuple
            and names == sorted(set(names))
            and all(c and _is_canonical_terms(c) for _, c in m.extras))


# raw input: names repeated and parts that may sum to zero
raw_extras = st.lists(st.tuples(st.sampled_from(sorted(GENERATORS)), u_terms), max_size=5)


@settings(max_examples=150, deadline=None)
@given(u_terms, raw_extras, classes, tate_classes, st.lists(st.integers(1, 4), max_size=4))
def test_every_result_is_canonical(terms, extras, b, t, sizes):
    a = MotivicClass(terms, extras + [(n, [(e, -c) for e, c in coeff]) for n, coeff in extras[:1]])
    results = [a, a + b, a - b, b - b, -a, t * a, a * t, a + 3, 2 * a]
    strata = [StratumRecord.of(range(k), m) for k, m in zip(sizes, (a, b, t, a - b))]
    results.append(nearby_class(SncData(strata, 2)))
    assert all(_is_canonical(m) for m in results)
