"""Motivic weight ring: Laurent arithmetic, cell classes, specializations."""

import random
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import comb
from operator import add

import pytest

from arithdt.errors import ArithdtError, GeneratorProductError
from arithdt.fields import CC, QQ, RR, finite_field, linear_sum
from arithdt.gw import GwElement
from arithdt.gwalpha import (
    DEFAULT_GENERATORS,
    SPEC_C,
    GaussianInteger,
    GeneratorSpec,
    GwAlphaElement,
    alpha_power,
)
from arithdt.motivic import (
    L,
    L_HALF,
    L_INV,
    MOT_ONE,
    MotivicClass,
    chi_a1,
    chi_complex,
    chi_real,
    grassmannian_class,
    projective_space_class,
    quadratic_point_generator,
    sum_products,
)


def test_laurent_arithmetic():
    assert L * L_INV == MOT_ONE
    assert (L + 1) * (L - 1) == MotivicClass.lefschetz(2) - 1
    p1 = projective_space_class(1)
    assert p1 * p1 == MotivicClass.lefschetz(2) + 2 * L + 1
    assert L_HALF * L_HALF == L


def test_projective_space_classes():
    assert projective_space_class(0) == MOT_ONE
    assert projective_space_class(1) == 1 + L
    assert projective_space_class(4) == MotivicClass([(2 * i, 1) for i in range(5)])
    with pytest.raises(ArithdtError):
        projective_space_class(-1)


def test_grassmannian_classes():
    assert grassmannian_class(2, 1) == projective_space_class(1)
    assert grassmannian_class(4, 0) == MOT_ONE
    assert grassmannian_class(4, 2) == MotivicClass(
        [(0, 1), (2, 1), (4, 2), (6, 1), (8, 1)]
    )
    with pytest.raises(ArithdtError):
        grassmannian_class(2, 3)


def test_grassmannian_duality_and_rank():
    for n in range(9):
        for k in range(n + 1):
            assert grassmannian_class(n, k) == grassmannian_class(n, n - k)
            assert chi_complex(grassmannian_class(n, k)) == comb(n, k)


# -- the Gaussian binomial against the q-factorial quotient ---------------------------


class InexactDivisionError(ArithdtError):
    """A polynomial division that must be exact left a remainder."""


def _exact_divide_tate(num: MotivicClass, den: MotivicClass) -> MotivicClass:
    """Exact division in Z[u, u^{-1}] by long division over Q; raises if the quotient is not there."""
    if num.extras or den.extras:
        raise ArithdtError("exact division is only defined on the Tate subring")
    if den.is_zero():
        raise ArithdtError("division by zero")
    if num.is_zero():
        return MotivicClass.zero()
    shift_num = num.u_terms[0][0]
    shift_den = den.u_terms[0][0]
    a = [Fraction(0)] * (num.u_terms[-1][0] - shift_num + 1)
    for e, c in num.u_terms:
        a[e - shift_num] = Fraction(c)
    b = [Fraction(0)] * (den.u_terms[-1][0] - shift_den + 1)
    for e, c in den.u_terms:
        b[e - shift_den] = Fraction(c)
    if len(a) < len(b):
        raise InexactDivisionError("division is not exact (degree too small)")
    quot = [Fraction(0)] * (len(a) - len(b) + 1)
    rem = a[:]
    for k in range(len(quot) - 1, -1, -1):
        coeff = rem[k + len(b) - 1] / b[-1]
        quot[k] = coeff
        if coeff:
            for j, bc in enumerate(b):
                rem[k + j] -= coeff * bc
    if any(rem):
        raise InexactDivisionError("division left a nonzero remainder")
    terms = []
    for k, c in enumerate(quot):
        if c:
            if c.denominator != 1:
                raise InexactDivisionError("quotient has non-integer coefficients")
            terms.append((k + shift_num - shift_den, int(c)))
    return MotivicClass(terms)


def _q_factorial(j: int) -> MotivicClass:
    """(L - 1)(L^2 - 1)...(L^j - 1)."""
    out = MOT_ONE
    for i in range(1, j + 1):
        out = out * (MotivicClass.lefschetz(i) - MOT_ONE)
    return out


def _grassmannian_by_division(n: int, k: int) -> MotivicClass:
    return _exact_divide_tate(_q_factorial(n), _q_factorial(n - k) * _q_factorial(k))


def test_exact_division_guard():
    with pytest.raises(InexactDivisionError):
        _exact_divide_tate(L + 1, L - 1)
    assert _exact_divide_tate(L * L - 1, L - 1) == L + 1


def test_grassmannian_matches_q_factorial_quotient():
    for n in range(13):
        for k in range(n + 1):
            assert grassmannian_class(n, k) == _grassmannian_by_division(n, k), (n, k)


def test_chi_complex_golden():
    assert chi_complex(L) == 1
    for n in range(6):
        assert chi_complex(projective_space_class(n)) == n + 1
    assert chi_complex(MotivicClass.u_power(3)) == -1


def test_chi_real_golden():
    assert chi_real(L) == GaussianInteger(-1, 0)
    assert chi_real(MOT_ONE) == GaussianInteger(1, 0)
    assert chi_real(L_HALF) == GaussianInteger(0, 1)


def test_chi_a1_golden():
    assert chi_a1(L) == GwAlphaElement.from_even(GwElement.unit(QQ, -1))
    assert chi_a1(projective_space_class(1)).even.gw_equal(GwElement.hyperbolic(QQ))
    p4 = chi_a1(projective_space_class(4))
    assert p4 == GwAlphaElement.from_even(
        GwElement.one(QQ) * 3 + GwElement.unit(QQ, -1) * 2
    )


def _random_class(rng) -> MotivicClass:
    return MotivicClass([(rng.randint(-4, 4), rng.randint(-3, 3)) for _ in range(3)])


def test_specializations_are_ring_morphisms():
    rng = random.Random(5)
    for _ in range(80):
        a, b = _random_class(rng), _random_class(rng)
        assert chi_complex(a + b) == chi_complex(a) + chi_complex(b)
        assert chi_complex(a * b) == chi_complex(a) * chi_complex(b)
        assert chi_real(a + b) == chi_real(a) + chi_real(b)
        assert chi_real(a * b) == chi_real(a) * chi_real(b)
        assert chi_a1(a + b) == chi_a1(a) + chi_a1(b)
        assert chi_a1(a * b) == chi_a1(a) * chi_a1(b)


def test_numeric_commutes_with_chi_a1():
    rng = random.Random(9)
    for _ in range(80):
        a = _random_class(rng)
        image = chi_a1(a)
        assert image.numeric_complex() == chi_complex(a)
        assert image.numeric_real() == chi_real(a)


def test_spec_c_generator():
    spec = DEFAULT_GENERATORS["SpecC"]
    assert spec.chi_complex == 2
    assert spec.chi_real == GaussianInteger(0, 0)
    assert spec.chi_a1.even.gw_equal(GwElement.hyperbolic(QQ))
    # the conic without real points at infinity: [X] = L + 1 - [SpecC]
    circle = L + 1 - MotivicClass.generator("SpecC")
    assert chi_complex(circle) == 0
    assert chi_real(circle) == GaussianInteger(0, 0)
    assert chi_a1(circle).even.gw_equal(GwElement.zero(QQ))


@pytest.mark.parametrize("field", [QQ, RR, finite_field(5)], ids=str)
def test_default_generator_table_holds_spec_c(field):
    # the table is built once, when gwalpha loads; that a motivic job loads no
    # gwalpha is pinned in test_package
    assert SPEC_C is DEFAULT_GENERATORS["SpecC"]
    # L + (1 - L^{1/2})*[SpecC]: chi_a1 of L is <-1>, of 1 - alpha times H is H - alpha*H
    m = MotivicClass([(2, 1)], {"SpecC": [(0, 1), (1, -1)]})
    h = GwElement.hyperbolic(field)
    expected = GwAlphaElement(GwElement.unit(field, -1) + h, -h)
    assert chi_a1(m, field) == expected
    assert chi_a1(m, field, DEFAULT_GENERATORS) == expected


def test_generator_spec_consistency_enforced():
    with pytest.raises(ArithdtError):
        GeneratorSpec("bad", 3, GaussianInteger(0, 0),
                      GwAlphaElement.from_even(GwElement.hyperbolic(QQ)))


def test_quadratic_point_generators():
    gen = quadratic_point_generator(-1)
    assert gen.chi_a1.even.gw_equal(GwElement.hyperbolic(QQ))
    assert gen.chi_real == GaussianInteger(0, 0)
    real_split = quadratic_point_generator(2)
    assert real_split.chi_real == GaussianInteger(2, 0)
    with pytest.raises(ArithdtError):
        quadratic_point_generator(4)


def test_generator_products_rejected():
    c = MotivicClass.generator("SpecC")
    with pytest.raises(GeneratorProductError):
        c * c
    with pytest.raises(GeneratorProductError):
        c * MotivicClass.generator("other")
    # Tate times generator is fine and distributes
    assert (L * c) + c == (L + 1) * c


def test_unknown_generator_raises_on_specialization():
    ghost = MotivicClass.generator("ghost")
    with pytest.raises(ArithdtError):
        chi_complex(ghost)


def test_rendering():
    assert MotivicClass.zero().render() == "0"
    assert (2 * L - 1 + MotivicClass.u_power(-1, 3)).render() == "2*L - 1 + 3*L^{-1/2}"
    assert MotivicClass.u_power(3).render() == "L^{3/2}"
    assert (L + 1 - MotivicClass.generator("SpecC")).render() == "L + 1 - [SpecC]"


def test_json_round_trip():
    cls = 2 * L - 1 + MotivicClass.u_power(-3, 4) + MotivicClass.generator("SpecC", 2) * L
    assert MotivicClass.from_json_dict(cls.to_json_dict()) == cls


# -- the three specializations against term-by-term sums ------------------------------

# SpecC and SpecQ(i) have no real points; SpecQ(sqrt(3)) has two
SPEC_QI = quadratic_point_generator(-1)
SPEC_Q3 = quadratic_point_generator(3)
GENERATORS = {spec.name: spec for spec in (SPEC_C, SPEC_QI, SPEC_Q3)}

# i^e for e mod 4
_I_POWERS = (GaussianInteger(1, 0), GaussianInteger(0, 1), GaussianInteger(-1, 0), GaussianInteger(0, -1))


def _chi_complex_termwise(m, generators):
    """u -> -1 one term at a time."""

    def minus_one_sum(terms):
        return sum(c * (-1) ** (e % 2) for e, c in terms)

    total = minus_one_sum(m.u_terms)
    for name, coeff in m.extras:
        total += minus_one_sum(coeff) * generators[name].chi_complex
    return total


def _chi_real_termwise(m, generators):
    """u -> i one term at a time, each i^e read from the table."""

    def i_sum(terms):
        part = GaussianInteger(0, 0)
        for e, c in terms:
            part = part + _I_POWERS[e % 4] * c
        return part

    total = i_sum(m.u_terms)
    for name, coeff in m.extras:
        total = total + i_sum(coeff) * generators[name].chi_real
    return total


def _chi_a1_termwise(m, field, generators):
    """u -> alpha one term at a time, each alpha^e built by alpha_power."""
    total = GwAlphaElement.zero(field)
    for e, c in m.u_terms:
        total = total + alpha_power(field, e) * c
    for name, coeff in m.extras:
        part = GwAlphaElement.zero(field)
        for e, c in coeff:
            part = part + alpha_power(field, e) * c
        total = total + part * generators[name].chi_a1.to_field(field)
    return total


def _seeded_classes(seed, count):
    """(class, extra names): Tate parts and up to three generator parts, some empty."""
    rng = random.Random(seed)

    def terms(spread):
        return [(rng.randint(-spread, spread), rng.randint(-4, 4)) for _ in range(rng.randint(0, 8))]

    for _ in range(count):
        names = rng.sample(sorted(GENERATORS), rng.randint(0, 3))
        yield MotivicClass(terms(9), [(n, terms(5)) for n in names]), names


def test_chi_complex_and_chi_real_match_termwise_sums():
    for m, names in _seeded_classes(71, 400):
        assert chi_complex(m, GENERATORS) == _chi_complex_termwise(m, GENERATORS)
        assert chi_real(m, GENERATORS) == _chi_real_termwise(m, GENERATORS)
        if set(names) <= {SPEC_C.name}:
            assert chi_complex(m) == _chi_complex_termwise(m, DEFAULT_GENERATORS)
            assert chi_real(m) == _chi_real_termwise(m, DEFAULT_GENERATORS)


# F_5 has -1 as a square, F_7 does not
@pytest.mark.parametrize("field", [QQ, RR, CC, finite_field(5), finite_field(7)], ids=str)
def test_chi_a1_matches_termwise_sum(field):
    for m, names in _seeded_classes(67, 150):
        image = chi_a1(m, field, GENERATORS)
        assert image == _chi_a1_termwise(m, field, GENERATORS)
        # the rank (and over an ordered field the signature) gives the other two counts
        assert image.numeric_complex() == _chi_complex_termwise(m, GENERATORS)
        if field.is_ordered:
            assert image.numeric_real() == _chi_real_termwise(m, GENERATORS)
        if set(names) <= {SPEC_C.name}:
            assert chi_a1(m, field) == _chi_a1_termwise(m, field, DEFAULT_GENERATORS)


# -- the sum kernel against the loops it replaced ---------------------------------------

ONE_TERM = ((0, 1),)


def _summed(*parts):
    """The u-term sum of the loops below: linear_sum, then sorted by exponent."""
    return tuple(sorted(linear_sum(chain.from_iterable(parts)).items()))


def _sorted_nonzero(extras):
    """What the trusted constructor did to its extras: sort by name, drop empty parts."""
    return tuple(sorted((n, c) for n, c in extras if c))


def accumulated(u_terms, extras):
    """The constructor's loop: one accumulator per name, summed one part at a time."""
    acc = {}
    for name, coeff in extras:
        acc[str(name)] = _summed(acc.get(str(name), ()), coeff)
    return _summed(u_terms), _sorted_nonzero(acc.items())


def two_pass_sum(classes):
    """The sum of a list of classes as sum_classes took it: a pass for the generator
    parts, then one more over the same list for the u-terms."""
    extras = {}
    for m in classes:
        for name, coeff in m.extras:
            extras.setdefault(name, []).append(coeff)
    return (_summed(*(m.u_terms for m in classes)),
            _sorted_nonzero((name, _summed(*parts)) for name, parts in extras.items()))


def per_name_products(pairs):
    """nearby_class's loop: the u-term products in one list, the others by name."""

    def products(a, b):
        return [(e1 + e2, c1 * c2) for e1, c1 in a for e2, c2 in b]

    u_parts, extras = [], {}
    for m, w in pairs:
        u_parts.append(products(m.u_terms, w))
        for name, coeff in m.extras:
            extras.setdefault(name, []).append(products(coeff, w))
    return _summed(*u_parts), _sorted_nonzero((n, _summed(*p)) for n, p in extras.items())


def _raw_parts(rng):
    """Raw constructor input: names repeated, zero coefficients, parts that cancel."""
    def terms():
        return [(rng.randint(-6, 6), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6))]

    extras = [(rng.choice(sorted(GENERATORS)), terms()) for _ in range(rng.randint(0, 6))]
    if extras and rng.random() < 0.3:
        name, coeff = rng.choice(extras)
        extras.append((name, [(e, -c) for e, c in coeff]))
    return terms(), extras


def _fields(m):
    return m.u_terms, m.extras


def test_constructor_matches_the_accumulator():
    rng = random.Random(2501)
    for _ in range(300):
        u_terms, extras = _raw_parts(rng)
        expected = accumulated(u_terms, extras)
        assert _fields(MotivicClass(u_terms, extras)) == expected
        # the parts may come as an iterator, and the u-terms as a dict
        assert _fields(MotivicClass(iter(u_terms), iter(extras))) == expected
        assert _fields(MotivicClass(dict(linear_sum(u_terms)), extras)) == expected


def test_sums_match_the_two_pass_sum():
    for seed in range(40):
        classes = [m for m, _ in _seeded_classes(seed, random.Random(seed).randint(0, 7))]
        expected = two_pass_sum(classes)
        assert _fields(reduce(add, classes, MotivicClass.zero())) == expected
        # a generator of pairs is read once, as the two-pass sum could not be
        assert _fields(sum_products((m, ONE_TERM) for m in classes)) == expected


def test_sum_products_matches_the_per_name_loop():
    rng = random.Random(2502)
    for seed in range(40):
        classes = [m for m, _ in _seeded_classes(100 + seed, rng.randint(0, 7))]
        weights = [MotivicClass(_raw_parts(rng)[0]).u_terms for _ in classes]
        pairs = list(zip(classes, weights))
        assert _fields(sum_products(iter(pairs))) == per_name_products(pairs)
        products = (m * MotivicClass(w) for m, w in pairs)
        assert sum_products(pairs) == reduce(add, products, MotivicClass.zero())


def test_a_generator_of_classes_is_summed_whole():
    # a sum that read its argument twice would find an empty generator the second time
    assert sum_products((m, ONE_TERM) for m in [L, MOT_ONE]) == L + 1
    spec_c = MotivicClass.generator("SpecC")
    assert sum_products((m, ONE_TERM) for m in [L, spec_c, spec_c]) == L + 2 * spec_c
    assert sum_products(iter(())) == MotivicClass.zero()
