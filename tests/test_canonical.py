"""Canonical form is set once: public constructors validate, ring operations trust.

The re-canonicalizing path is the oracle here: every result of a trusted ring
operation must equal the public constructor applied to the naive combination
of the operands' terms.  Counting tests check that the trusted path factors
nothing.
"""

import random
from fractions import Fraction
from math import prod

import pytest

from arithdt import fields
from arithdt.cli import dispatch
from arithdt.degrees import ConjugatePair, global_degree_univariate, local_degree_simple
from arithdt.ekl import ekl_class
from arithdt.errors import ArithdtError, GeneratorProductError
from arithdt.fields import CC, QQ, RR, BaseField, finite_field, prime_factors
from arithdt.groebner import buchberger, leading_monomial, normal_form
from arithdt.forms import hasse_invariant, hilbert_symbol
from arithdt.gw import GwElement, diagonalize_symmetric, trace_form
from arithdt.gwalpha import GaussianInteger
from arithdt.motivic import MOT_ONE, MotivicClass
from arithdt.multipoly import MultiPoly
from arithdt.nearby import SncData, StratumRecord
from arithdt.potential import MatrixTriple
from arithdt.squares import square_class_rep

from test_gw import naive_hasse

FIELDS = (QQ, RR, CC, finite_field(5), finite_field(11))


@pytest.fixture
def forbid_factoring(monkeypatch):
    """From the call on, fields.squarefree_part records its argument and fails at once.

    Failing at once keeps a regression from hanging on a 19-digit trial
    division; the returned list also shows calls whose error was swallowed.
    """
    calls = []

    def refuse(n):
        calls.append(n)
        raise AssertionError(f"squarefree_part({n}) called on canonical data")

    def forbid():
        monkeypatch.setattr(fields, "squarefree_part", refuse)
        return calls

    return forbid


# -- public constructors -------------------------------------------------------


@pytest.mark.parametrize(
    "build, expected",
    [
        pytest.param(lambda: GwElement(QQ, [(2, 1.5)]), None, id="gw-float-multiplicity"),
        pytest.param(lambda: GwElement(QQ, [(2, Fraction(3, 2))]), None, id="gw-fraction-multiplicity"),
        pytest.param(lambda: MotivicClass([(0.5, 1.7)]), None, id="motivic-float-term"),
        pytest.param(lambda: MotivicClass([(1, Fraction(5, 2))]), None, id="motivic-fraction-coefficient"),
        pytest.param(lambda: MotivicClass((), {"g": [(0, 0.5)]}), None, id="motivic-float-extra"),
        pytest.param(lambda: MultiPoly(("x",), {(1.5,): 1}), None, id="poly-float-exponent"),
        pytest.param(lambda: MultiPoly(("x",), {(1,): 0.1}), None, id="poly-float-coefficient"),
        pytest.param(lambda: MultiPoly(("x",), [([1], 0.5)]), None, id="poly-pairs-float"),
        pytest.param(lambda: StratumRecord.of([1], MOT_ONE, {1: 2.7}), None, id="stratum-float-mult"),
        pytest.param(lambda: StratumRecord.of([1], MOT_ONE, {1: True}), None, id="stratum-bool-mult"),
        pytest.param(lambda: StratumRecord.of([1], MOT_ONE, {1: "3"}), None, id="stratum-string-mult"),
        pytest.param(lambda: StratumRecord.of([1.5], MOT_ONE), None, id="stratum-float-index"),
        pytest.param(lambda: StratumRecord.of(["a", 1], MOT_ONE), None, id="stratum-string-index"),
        pytest.param(lambda: SncData((), 2.5), None, id="snc-float-dim"),
        pytest.param(lambda: SncData((), True), None, id="snc-bool-dim"),
        pytest.param(lambda: GaussianInteger.from_json_dict({"re": 1.9, "im": 2}), None, id="gaussian-float-re"),
        pytest.param(lambda: GaussianInteger.from_json_dict({"re": 1, "im": "2"}), None, id="gaussian-string-im"),
        pytest.param(lambda: trace_form(2.7, 1), None, id="trace-form-float-d"),
        pytest.param(lambda: trace_form(Fraction(7, 2), 1), None, id="trace-form-fraction-d"),
        pytest.param(lambda: trace_form("3", 1), None, id="trace-form-string-d"),
        pytest.param(lambda: trace_form(2, 0.1), None, id="trace-form-float-u"),
        pytest.param(lambda: trace_form(2, 1, 0.5), None, id="trace-form-float-v"),
        pytest.param(lambda: diagonalize_symmetric([[0.5]]), None, id="diagonalize-float-entry"),
        pytest.param(lambda: square_class_rep(QQ, 0.5), None, id="square-class-float"),
        pytest.param(lambda: square_class_rep(QQ, True), None, id="square-class-bool"),
        pytest.param(lambda: ekl_class([MultiPoly.parse(("x",), "x**2")], functional=[0, 1.0]), None,
                     id="ekl-float-functional"),
        pytest.param(lambda: global_degree_univariate(MultiPoly.parse(("x",), "x"), 0.5), None,
                     id="global-degree-float-y"),
        pytest.param(lambda: MultiPoly(("x",), {(1,): True}), None, id="poly-bool-coefficient"),
        pytest.param(lambda: hilbert_symbol(0.1, 3, 5), None, id="hilbert-float-a"),
        pytest.param(lambda: hilbert_symbol(True, 3, 5), None, id="hilbert-bool-a"),
        pytest.param(lambda: hilbert_symbol(3, 0.5, "inf"), None, id="hilbert-float-b"),
        pytest.param(lambda: hasse_invariant([0.5, 0.5, 0.5, 0.5], 2), None, id="hasse-float-entry"),
        pytest.param(lambda: MatrixTriple.of([[0.1]], [[0]], [[0]]), None, id="triple-float-matrix"),
        pytest.param(lambda: MatrixTriple.of([[0]], [[0]], [[True]]), None, id="triple-bool-matrix"),
        pytest.param(lambda: MatrixTriple.of([[0]], [[0]], [[0]], [0.5]), None, id="triple-float-vector"),
        pytest.param(lambda: MultiPoly.parse(("x",), "x").evaluate([0.1]), None, id="evaluate-float-point"),
        pytest.param(lambda: MultiPoly.parse(("x",), "x").evaluate_quadratic([(0.5, 0.25)], 2), None,
                     id="evaluate-quadratic-float-point"),
        pytest.param(lambda: local_degree_simple([MultiPoly.parse(("x",), "x**2 - 1")], [1.0]), None,
                     id="local-degree-float-point"),
        pytest.param(
            lambda: local_degree_simple([MultiPoly.parse(("x",), "x**2 - 2")], ConjugatePair(2, ((0, 1.0),))),
            None,
            id="local-degree-float-pair",
        ),
        pytest.param(lambda: ConjugatePair(2.5, ((0, 1),)), None, id="conjugate-pair-float-d"),
        pytest.param(lambda: finite_field(7.0), None, id="field-float-p"),
        pytest.param(lambda: finite_field("7"), None, id="field-string-p"),
        pytest.param(lambda: BaseField(BaseField.FINITE, Fraction(7)), None, id="field-fraction-p"),
        pytest.param(
            lambda: MotivicClass((), [("g", [(0, 1)]), ("g", [(0, 1)])]),
            MotivicClass((), {"g": [(0, 2)]}),
            id="motivic-duplicate-names-sum",
        ),
        pytest.param(
            lambda: MotivicClass((), [("g", [(0, 1)]), ("g", [(0, -1)])]),
            MotivicClass(),
            id="motivic-duplicate-names-cancel",
        ),
        pytest.param(
            lambda: MultiPoly(("x",), {(1,): "1/3", (0,): Fraction(2)}),
            MultiPoly(("x",), [([1], Fraction(1, 3)), ([0], 2)]),
            id="poly-exact-coefficients",
        ),
    ],
)
def test_public_constructors_refuse_inexact_input(build, expected):
    if expected is None:
        with pytest.raises(ArithdtError):
            build()
    else:
        assert build() == expected


# -- GW(k) ---------------------------------------------------------------------------


def _values(field):
    values = [1, -1, 2, -2, 3, 5, -6, 7, 12, -18, Fraction(3, 4), Fraction(-5, 8)]
    if field.p is not None:
        values = [v for v in values if v.numerator % field.p]
    return values


def _random_gw(rng, field):
    return GwElement(
        field,
        [(rng.choice(_values(field)), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))],
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_gw_ring_ops_match_public_constructor(field):
    rng = random.Random(41)
    for _ in range(150):
        a, b = _random_gw(rng, field), _random_gw(rng, field)
        k = rng.randint(-3, 3)
        neg_b = tuple((r, -m) for r, m in b.terms)
        assert a + b == GwElement(field, a.terms + b.terms)
        assert a - b == GwElement(field, a.terms + neg_b)
        assert -b == GwElement(field, neg_b)
        assert k * a == a * k == GwElement(field, [(r, k * m) for r, m in a.terms])
        assert a * b == GwElement(
            field, [(r1 * r2, m1 * m2) for r1, m1 in a.terms for r2, m2 in b.terms]
        )


def _same_class(field, a, b):
    """Whether a = b in GW(k), from the complete invariants of two genuine forms.

    By Witt cancellation a = b exactly when a+ + b- and b+ + a- are isometric,
    where x+ and x- are the positive and negative parts of x.
    """

    def part(z, sign):
        return [r for r, m in z.terms if sign * m > 0 for _ in range(abs(m))]

    x = part(a, 1) + part(b, -1)
    y = part(b, 1) + part(a, -1)
    if len(x) != len(y):
        return False
    if field.kind == "C":
        return True
    if field.kind == "F":
        return square_class_rep(field, prod(x)) == square_class_rep(field, prod(y))
    if sum(e > 0 for e in x) != sum(e > 0 for e in y):
        return False
    if field.kind == "R":
        return True
    if square_class_rep(field, prod(x)) != square_class_rep(field, prod(y)):
        return False
    places = {2}.union(*(prime_factors(e) for e in x + y))
    return all(naive_hasse(x, p) == naive_hasse(y, p) for p in places)


def _equal_partner(rng, field, a):
    """A class equal to a in GW(k) but with other terms: <c> + <d> = <c+d> + <cd(c+d)>."""
    c, d = rng.choice(_values(field)), rng.choice(_values(field))
    s = c + d
    if s == 0 or (field.p is not None and s.numerator % field.p == 0):
        return a + GwElement.hyperbolic(field) - GwElement(field, [(c, 1), (-c, 1)])
    return GwElement(field, a.terms + ((c, 1), (d, 1), (s, -1), (c * d * s, -1)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_gw_equal_matches_invariant_oracle(field):
    rng = random.Random(43)
    for _ in range(120):
        a, b = _random_gw(rng, field), _random_gw(rng, field)
        assert a.gw_equal(b) == _same_class(field, a, b)
        partner = _equal_partner(rng, field, a)
        assert a.gw_equal(partner) and _same_class(field, a, partner)


# 12-digit products of two primes near 10**6; B1 is a sum of two squares, B0 is not
B0 = 999983 * 1000003
B1 = 999961 * 1000033
B2 = -999979 * 1000033


def test_ring_ops_and_gw_equal_make_no_factorization(forbid_factoring):
    a = GwElement(QQ, [(B0, 2), (B1, -1), (-1, 1)])
    b = GwElement(QQ, [(B1, 1), (B2, 1)])
    b0, b1, two_ones = GwElement(QQ, [(B0, 2)]), GwElement(QQ, [(B1, 2)]), GwElement(QQ, [(1, 2)])
    calls = forbid_factoring()
    products = [a + b, a - b, a * b, -a, 3 * a, a * -2, b * b]
    assert all(p.terms for p in products)
    assert not a.gw_equal(b)
    assert a.gw_equal(a + b - b)
    assert b1.gw_equal(two_ones)  # B1 = x^2 + y^2
    assert not b0.gw_equal(two_ones)
    assert calls == []


def test_discriminant_makes_no_factorization(forbid_factoring, monkeypatch, capsys):
    a = GwElement(QQ, [(1000000007, 1), (1000000009, 1)])
    calls = forbid_factoring()
    disc = a.discriminant()
    assert (disc.field, disc.rep) == (QQ, 1000000016000000063)
    assert calls == []
    monkeypatch.undo()  # parsing the CLI input factors the two 10-digit primes
    assert dispatch(["gw", "--op", "discriminant", "--a", "<1000000007> + <1000000009>"]) == 0
    assert capsys.readouterr().out.strip() == "<1000000016000000063>"


# -- motivic classes ---------------------------------------------------------------


def _random_terms(rng, spread, size):
    return [(rng.randint(-spread, spread), rng.randint(-3, 3)) for _ in range(rng.randint(0, size))]


def _random_motivic(rng, extras):
    names = rng.randint(0, 2) if extras else 0
    return MotivicClass(
        _random_terms(rng, 4, 4),
        [(rng.choice("gh"), _random_terms(rng, 2, 2)) for _ in range(names)],
    )


def _scaled(m, k):
    return [(e, k * c) for e, c in m.u_terms], [(n, [(e, k * c) for e, c in t]) for n, t in m.extras]


@pytest.mark.parametrize("extras", [False, True], ids=["tate", "extras"])
def test_motivic_ring_ops_match_public_constructor(extras):
    rng = random.Random(47)
    for _ in range(300):
        a, b = _random_motivic(rng, extras), _random_motivic(rng, extras)
        k = rng.randint(-3, 3)
        neg_u, neg_extras = _scaled(b, -1)
        assert a + b == MotivicClass(a.u_terms + b.u_terms, a.extras + b.extras)
        assert -b == MotivicClass(neg_u, neg_extras)
        assert a - b == MotivicClass(list(a.u_terms) + neg_u, list(a.extras) + neg_extras)
        assert a + k == k + a == MotivicClass(a.u_terms + ((0, k),), a.extras)
        assert a - k == MotivicClass(a.u_terms + ((0, -k),), a.extras)
        assert k * a == a * k == MotivicClass(*_scaled(a, k))
        if a.extras and b.extras:
            with pytest.raises(GeneratorProductError):
                a * b
            continue
        u = [(e1 + e2, c1 * c2) for e1, c1 in a.u_terms for e2, c2 in b.u_terms]
        named = [
            (n, [(e1 + e2, c1 * c2) for e1, c1 in t for e2, c2 in y.u_terms])
            for x, y in ((a, b), (b, a))
            for n, t in x.extras
        ]
        assert a * b == MotivicClass(u, named)


# -- polynomials and normal forms --------------------------------------------------------

VARS = ("x", "y", "z")


def _random_poly(rng, degree=3):
    return MultiPoly(
        VARS,
        [
            (tuple(rng.randint(0, degree) for _ in VARS), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 5))
        ],
    )


def test_multipoly_ops_match_public_constructor():
    rng = random.Random(53)
    for _ in range(200):
        f, g = _random_poly(rng), _random_poly(rng)
        k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        i = rng.randrange(len(VARS))
        f_terms, g_terms = list(f.terms.items()), list(g.terms.items())
        assert f + g == MultiPoly(VARS, f_terms + g_terms)
        assert f - g == MultiPoly(VARS, f_terms + [(e, -c) for e, c in g_terms])
        assert f * k == MultiPoly(VARS, [(e, c * k) for e, c in f_terms])
        assert f * g == MultiPoly(
            VARS,
            [(tuple(map(sum, zip(e1, e2))), c1 * c2) for e1, c1 in f_terms for e2, c2 in g_terms],
        )
        assert f.partial(i) == MultiPoly(
            VARS, [(tuple(v - (j == i) for j, v in enumerate(e)), c * e[i]) for e, c in f_terms if e[i]]
        )


@pytest.mark.parametrize("zero", [0, Fraction(0)], ids=["int", "fraction"])
def test_scalar_zero_products_are_the_zero_element(zero):
    # a scalar 0 is the one product whose terms could cancel to zero; the trusted
    # constructors no longer drop zero coefficients, so it must give the zero element
    p = MultiPoly(VARS, {(2, 0, 1): Fraction(3, 2), (0, 1, 0): -4})
    assert p * zero == zero * p == MultiPoly.zero(VARS)
    assert (p * zero).terms == {} and (zero * p).is_zero()
    if type(zero) is int:
        for field in FIELDS:
            g = GwElement(field, [(1, 2), (-1, -3)])
            assert g * zero == zero * g == GwElement.zero(field)
            assert (g * zero).terms == () and (g * zero).rank() == 0


def _naive_normal_form(p, basis):
    """Full reduction with every intermediate rebuilt by the public constructor."""
    work, remainder = p, []
    while not work.is_zero():
        mono = leading_monomial(work)
        coeff = work.terms[mono]
        g = next((g for g in basis if all(a <= b for a, b in zip(leading_monomial(g), mono))), None)
        if g is None:
            remainder.append((mono, coeff))
            work = MultiPoly(VARS, [(e, c) for e, c in work.terms.items() if e != mono])
            continue
        lm = leading_monomial(g)
        factor = coeff / g.terms[lm]
        shifted = [(tuple(a + m - b for a, m, b in zip(e, mono, lm)), -factor * c) for e, c in g.terms.items()]
        work = MultiPoly(VARS, list(work.terms.items()) + shifted)
    return MultiPoly(VARS, remainder)


@pytest.mark.parametrize(
    "texts",
    [
        ("x**2 - y*z", "y**3 - x", "z**2 + x*y"),
        ("3*x**2", "4*y**3", "5*z**4"),
        ("x*y + z**2", "x**3 - y", "y**2 - x*z"),
    ],
)
def test_normal_form_matches_naive_division(texts):
    rng = random.Random(59)
    basis = buchberger([MultiPoly.parse(VARS, t) for t in texts])
    lms = [leading_monomial(g) for g in basis]
    for _ in range(40):
        p = _random_poly(rng, degree=4)
        assert normal_form(p, basis, lms) == _naive_normal_form(p, basis)
