"""Groebner engine: order sanity, reduced bases, quotient algebras.

Dimensions and basis leading terms are cross-checked against an independent
implementation (sympy) on a suite of zero-dimensional ideals.  The plain
pair loop, which reduces every S-pair with non-coprime leading monomials, is
the oracle for the chain criterion of buchberger.  Products in the quotient
and its locality check walk the multiplication matrices; one normal form per
product is the oracle for both.
"""

import heapq
import itertools
import random
from fractions import Fraction

import pytest
from test_acceptance import EKL_SUITE

from arithdt.errors import (
    ArithdtError,
    NotSupportedAtOriginError,
    PositiveDimensionalIdealError,
)
import arithdt.groebner as groebner
from arithdt.groebner import (
    QuotientAlgebra,
    buchberger,
    grevlex_key,
    leading_monomial,
    normal_form,
)
from arithdt.multipoly import MultiPoly


def P(variables, text):
    return MultiPoly.parse(variables, text)


def test_grevlex_order():
    # degree first; ties break on the rightmost nonzero difference being negative
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 1, 0)) > grevlex_key((0, 0, 1))
    assert grevlex_key((0, 0, 2)) > grevlex_key((1, 0, 0))
    assert leading_monomial(P(("x", "y"), "x**2 + x*y + y**2")) == (2, 0)


def test_normal_form_is_linear_and_idempotent():
    variables = ("x", "y")
    basis = buchberger([P(variables, "x**2 - y"), P(variables, "y**2")])
    f = P(variables, "x**3 + 2*x*y + 5")
    g = P(variables, "x*y**2 - x")
    lms = [leading_monomial(b) for b in basis]
    nf = lambda h: normal_form(h, basis, lms)
    assert nf(nf(f)) == nf(f)
    assert nf(f + g) == nf(f) + nf(g)
    assert nf(f * g).total_degree() <= max(nf(f).total_degree() + nf(g).total_degree(), 0)


def test_algebra_leading_monomials_are_worked_out_once(monkeypatch):
    import arithdt.groebner as groebner

    calls = []

    def counting(p):
        calls.append(p)
        return leading_monomial(p)

    monkeypatch.setattr(groebner, "leading_monomial", counting)
    for variables, texts in EKL_SUITE:
        calls.clear()
        buchberger([P(variables, t) for t in texts])
        in_buchberger = len(calls)
        calls.clear()
        algebra = QuotientAlgebra.of_ideal([P(variables, t) for t in texts])
        # buchberger's own calls, then one per element of the reduced basis
        assert len(calls) == in_buchberger + len(algebra.groebner)
        assert algebra.leading_monomials == tuple(leading_monomial(g) for g in algebra.groebner)


def test_reduced_basis_properties():
    variables = ("x", "y")
    basis = buchberger([P(variables, "x**2 + y**3"), P(variables, "y**4")])
    lms = [leading_monomial(g) for g in basis]
    # monic
    for g in basis:
        assert g.terms[leading_monomial(g)] == 1
    # no leading monomial divides another
    for i, a in enumerate(lms):
        for j, b in enumerate(lms):
            if i != j:
                assert not all(x <= y for x, y in zip(a, b))
    # every element is fully reduced against the others
    for i, g in enumerate(basis):
        rest = [h for j, h in enumerate(basis) if j != i]
        assert normal_form(g, rest, lms[:i] + lms[i + 1 :]) == g
    # all original generators reduce to zero
    for gen in (P(variables, "x**2 + y**3"), P(variables, "y**4")):
        assert normal_form(gen, basis, lms).is_zero()


def test_quotient_golden_examples():
    a = QuotientAlgebra.of_ideal([P(("x",), "x**2")])
    assert a.dimension == 2
    assert a.standard_monomials == ((0,), (1,))
    assert [g.render() for g in a.groebner] == ["x^2"]

    a = QuotientAlgebra.of_ideal([P(("x", "y"), "2*x"), P(("x", "y"), "-2*y")])
    assert a.dimension == 1
    assert a.standard_monomials == ((0, 0),)

    a = QuotientAlgebra.of_ideal([P(("x",), "x**3")])
    assert a.dimension == 3
    assert a.standard_monomials == ((0,), (1,), (2,))


def test_quotient_rejects_bad_ideals():
    with pytest.raises(PositiveDimensionalIdealError):
        QuotientAlgebra.of_ideal([P(("x", "y"), "x*y")])
    with pytest.raises(PositiveDimensionalIdealError):
        QuotientAlgebra.of_ideal([P(("x", "y"), "x")])
    with pytest.raises(NotSupportedAtOriginError):
        QuotientAlgebra.of_ideal([P(("x",), "x**2 - 1")])
    with pytest.raises(NotSupportedAtOriginError):
        QuotientAlgebra.of_ideal([P(("x",), "x**2 - x")])
    with pytest.raises(NotSupportedAtOriginError):
        # unit ideal
        QuotientAlgebra.of_ideal([P(("x",), "x"), P(("x",), "x - 1")])


def test_multiplication_table_reflects_relations():
    a = QuotientAlgebra.of_ideal([P(("x", "y"), "x**2 + y**2"), P(("x", "y"), "x*y")])
    assert a.dimension == 4
    idx = {m: i for i, m in enumerate(a.standard_monomials)}
    x, y, y2 = idx[(1, 0)], idx[(0, 1)], idx[(0, 2)]
    assert a.basis_product(x, x) == {y2: Fraction(-1)}  # x^2 = -y^2
    assert a.basis_product(x, y) == {}  # xy = 0
    table = multiplication_table(a)
    assert list(table) == [(i, j) for i in range(4) for j in range(i, 4)]
    assert table[x, x] == {y2: Fraction(-1)} and table[y, x] == {}
    assert all(table[i, j] == oracle_basis_product(a, i, j) for i, j in table)


def multiplication_table(algebra):
    """Structure constants {(i, j): {k: c}} for i <= j, one ``basis_product`` each."""
    n = algebra.dimension
    return {(i, j): algebra.basis_product(i, j) for i in range(n) for j in range(i, n)}


# -- matrix walks against one normal form per product ---------------------------------


def oracle_basis_product(algebra, i, j):
    """Coordinates of b_i * b_j from the normal form of the product monomial."""
    mono = tuple(a + b for a, b in zip(algebra.standard_monomials[i], algebra.standard_monomials[j]))
    nf = algebra.normal_form(MultiPoly(algebra.variables, {mono: 1}))
    return dict(sorted((algebra.index[e], c) for e, c in nf.terms.items()))


def box_monomials(lms, n):
    """The standard monomials, grevlex-sorted, as the box of the pure-power bounds lists them.

    None when some variable has no pure power among the leading monomials lms.
    """
    bounds = []
    for i in range(n):
        pure = [lm[i] for lm in lms if lm[i] and not any(lm[j] for j in range(n) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    box = itertools.product(*(range(b) for b in bounds))
    kept = (e for e in box if not any(all(x <= y for x, y in zip(lm, e)) for lm in lms))
    return sorted(kept, key=grevlex_key)


def oracle_locality_error(polys):
    """The error of_ideal should raise, found by reducing x_i^dim for every variable x_i."""
    variables = polys[0].variables
    basis = buchberger(polys)
    lms = [leading_monomial(g) for g in basis]
    n = len(variables)
    box = box_monomials(lms, n)
    if box is None:
        return PositiveDimensionalIdealError
    powers = [tuple(len(box) if j == i else 0 for j in range(n)) for i in range(n)]
    if all(normal_form(MultiPoly(variables, {p: 1}), basis, lms).is_zero() for p in powers):
        return None
    return NotSupportedAtOriginError


def _dense_forms(seed, n, d):
    """n dense forms of degree d in n variables with coefficients +-1."""
    rng = random.Random(seed)
    monomials = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
    return [MultiPoly(("x", "y", "z")[:n], {e: rng.choice((-1, 1)) for e in monomials}) for _ in range(n)]


WALK_CASES = [[P(v, t) for t in ts] for v, ts in EKL_SUITE]
WALK_CASES += [
    P(("x", "y"), "x**6 + y**6").gradient(),
    P(("x", "y"), "x**11 + y**11").gradient(),
    P(("x", "y", "z"), "x**4 + y**4 + z**4").gradient(),
]
# (n, d): seeds whose forms meet only at the origin
GENERIC_SEEDS = {(2, 3): (0, 1, 2), (2, 4): (0, 1, 2), (2, 5): (0, 2, 4), (3, 2): (0, 2, 5), (3, 3): (0, 2, 3)}
WALK_CASES += [_dense_forms(seed, n, d) for (n, d), seeds in GENERIC_SEEDS.items() for seed in seeds]
NON_LOCAL = [
    ([P(("x", "y"), "x*y")], PositiveDimensionalIdealError),
    ([P(("x",), "x**2 - 1")], NotSupportedAtOriginError),
    ([P(("x",), "x**2 - x")], NotSupportedAtOriginError),
]


def _case_id(polys):
    return " | ".join(map(str, polys))[:40].strip()


@pytest.mark.parametrize(
    "polys,error", [pytest.param(p, e, id=_case_id(p)) for p, e in [(p, None) for p in WALK_CASES] + NON_LOCAL]
)
def test_locality_check_matches_reduced_powers(polys, error):
    assert oracle_locality_error(polys) is error
    if error is None:
        QuotientAlgebra.of_ideal(polys)
    else:
        with pytest.raises(error):
            QuotientAlgebra.of_ideal(polys)


@pytest.mark.parametrize("polys", WALK_CASES, ids=_case_id)
def test_basis_product_matches_per_pair_normal_form(polys):
    algebra = QuotientAlgebra.of_ideal(polys)
    for i in range(algebra.dimension):
        for j in range(algebra.dimension):
            assert algebra.basis_product(i, j) == oracle_basis_product(algebra, i, j), (i, j)


# -- the walk of the standard monomials against the box ---------------------------------


@pytest.fixture
def walk(monkeypatch):
    """of_ideal, returning the algebra and the number of candidates its walk tested.

    A candidate is a monomial tested against the leading monomials after the
    Groebner basis is made and before the matrices are built.
    """
    tested, walking = set(), []
    divides, basis_of, build = groebner._divides, groebner.buchberger, QuotientAlgebra.__init__

    def counting_divides(a, b):
        if walking:
            tested.add(b)
        return divides(a, b)

    def basis_then_walk(generators):
        basis = basis_of(generators)
        walking.append(True)
        return basis

    def build_after_walk(self, *args):
        walking.clear()
        build(self, *args)

    monkeypatch.setattr(groebner, "_divides", counting_divides)
    monkeypatch.setattr(groebner, "buchberger", basis_then_walk)
    monkeypatch.setattr(QuotientAlgebra, "__init__", build_after_walk)

    def run(polys):
        tested.clear()
        walking.clear()  # an ideal of_ideal refused may have stopped before its matrices
        algebra = QuotientAlgebra.of_ideal(polys)
        return algebra, len(tested)

    return run


def assert_walk_is_the_box(walk, polys):
    algebra, candidates = walk(polys)
    n = len(algebra.variables)
    assert list(algebra.standard_monomials) == box_monomials(algebra.leading_monomials, n)
    # every standard monomial but 1 is a candidate
    assert algebra.dimension - 1 <= candidates <= n * algebra.dimension
    return algebra, candidates


def thin_staircase(N):
    """(x*y, x^N + y^N): dim 2N, but its box has (N + 1)^2 points."""
    return [P(("x", "y"), "x*y"), P(("x", "y"), f"x**{N} + y**{N}")]


@pytest.mark.parametrize("polys", WALK_CASES, ids=_case_id)
def test_walk_lists_the_box_on_the_walk_cases(walk, polys):
    assert_walk_is_the_box(walk, polys)


def test_walk_lists_the_box_on_thin_staircases(walk):
    for N in range(1, 61):
        algebra, candidates = assert_walk_is_the_box(walk, thin_staircase(N))
        # 1, x, ..., x^{N-1} raise x and y, and y, ..., y^N raise y only: 3N, not (N + 1)^2
        assert algebra.dimension == 2 * N and candidates == 3 * N


@pytest.mark.parametrize("a,c", itertools.product((1, 2, 3, 5, 8, 13), repeat=2))
def test_walk_lists_the_box_off_the_graded_family(walk, a, c):
    # x^a + y^3 + x*y is not quasi-homogeneous; with y^c its only zero is the origin
    assert_walk_is_the_box(walk, [P(("x", "y"), f"x**{a} + y**3 + x*y"), P(("x", "y"), f"y**{c}")])


def _random_system(seed):
    """Three or four polynomials in x, y, z of one to three terms of degree 1 to 4."""
    rng = random.Random(seed)
    exps = [e for e in itertools.product(range(5), repeat=3) if 1 <= sum(e) <= 4]
    return [
        MultiPoly(("x", "y", "z"), {e: rng.choice((-2, -1, 1, 2)) for e in rng.sample(exps, rng.randint(1, 3))})
        for _ in range(rng.randint(3, 4))
    ]


def test_walk_lists_the_box_on_random_ternary_systems(walk):
    accepted = []
    for seed in range(200):
        try:
            algebra, _ = assert_walk_is_the_box(walk, _random_system(seed))
        except (PositiveDimensionalIdealError, NotSupportedAtOriginError):
            continue
        accepted.append(algebra.dimension)
    # 18 of the 200 seeds meet only at the origin, with dims from 1 to 48
    assert len(accepted) == 18 and max(accepted) == 48


def plain_buchberger(generators):
    """Reduced basis from the pair loop that skips coprime leading monomials only.

    Pairs are popped by smallest lcm degree, as in buchberger, which adds the
    chain criterion.
    """
    basis = [groebner._monic(g) for g in generators if not g.is_zero()]
    lms = [leading_monomial(g) for g in basis]
    pairs = []

    def add_pairs(i):
        for j in range(i):
            lcm = tuple(max(a, b) for a, b in zip(lms[i], lms[j]))
            if lcm != tuple(a + b for a, b in zip(lms[i], lms[j])):
                heapq.heappush(pairs, (sum(lcm), i, j))

    for i in range(len(basis)):
        add_pairs(i)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        r = normal_form(groebner._s_polynomial(basis[i], basis[j], lms[i], lms[j]), basis, lms)
        if not r.is_zero():
            basis.append(groebner._monic(r))
            lms.append(leading_monomial(basis[-1]))
            add_pairs(len(basis) - 1)
    return groebner._interreduce(basis, lms)


SUITE = [
    (("x",), ["x**2"]),
    (("x",), ["x**5"]),
    (("x", "y"), ["2*x", "-2*y"]),
    (("x", "y"), ["x**2", "y**2"]),
    (("x", "y"), ["x**3", "y**2"]),
    (("x", "y"), ["x**2 + y**3", "y**4"]),
    (("x", "y"), ["3*x**2 - y**2", "-2*x*y"]),
    (("x", "y"), ["x**2 + y**2", "x*y"]),
    (("x", "y"), ["y - x**3", "y**3"]),
    (("x", "y", "z"), ["x**2", "y**2", "z**2"]),
    (("x", "y", "z"), ["2*x", "3*y", "5*z"]),
    (("x", "y", "z"), ["x**3", "y**2", "z**2"]),
    (("x", "y"), ["x**2 - y**3", "x*y**2"]),
    # tails that only the final inter-reduction removes
    (("x", "y"), ["x**3 + y**2", "y**2"]),
    (("x", "y", "z"), ["x**3 + y**2*z", "y**2", "z**2"]),
]


@pytest.mark.parametrize("variables,texts", SUITE, ids=lambda v: str(v)[:28])
def test_dimensions_against_sympy(variables, texts):
    sympy = pytest.importorskip("sympy")
    polys = [P(variables, t) for t in texts]
    algebra = QuotientAlgebra.of_ideal(polys)

    symbols = sympy.symbols(variables)
    basis = sympy.groebner(
        [sympy.sympify(t.replace("**", "^").replace("^", "**")) for t in texts],
        *symbols,
        order="grevlex",
    )
    leading = [
        tuple(sympy.Poly(g, *symbols).LM(order="grevlex").exponents)
        for g in basis.exprs
    ]
    ours = sorted(leading_monomial(g) for g in algebra.groebner)
    assert ours == sorted(leading)
    # the whole reduced basis, each element monic (sympy returns primitive integer multiples)
    theirs = {sympy.expand(g / sympy.Poly(g, *symbols).LC(order="grevlex")) for g in basis.exprs}
    ours = {
        sympy.expand(sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
            for exps, c in g.terms.items()
        ))
        for g in algebra.groebner
    }
    assert ours == theirs

    assert algebra.dimension == len(box_monomials(leading, len(variables)))


GENERIC_CASES = [_dense_forms(seed, n, d) for (n, d), seeds in GENERIC_SEEDS.items() for seed in seeds]


@pytest.mark.parametrize(
    "polys",
    [[P(v, t) for t in ts] for v, ts in SUITE] + GENERIC_CASES,
    ids=_case_id,
)
def test_buchberger_matches_plain_pair_loop(polys):
    assert buchberger(polys) == plain_buchberger(polys)


def test_chain_criterion_skips_s_pairs(monkeypatch):
    """S-pair normal forms on one dense ternary quartic: the plain pair loop makes 116."""
    polys = _dense_forms(0, 3, 4)
    made = []
    s_polynomial = groebner._s_polynomial
    monkeypatch.setattr(groebner, "_s_polynomial", lambda *a: made.append(a) or s_polynomial(*a))
    plain = plain_buchberger(polys)
    in_plain = len(made)
    made.clear()
    assert buchberger(polys) == plain
    assert in_plain == 116
    assert len(made) <= 40


def test_multipoly_basics():
    variables = ("x", "y")
    f = P(variables, "x**2 - y**2")
    assert f.evaluate([3, 2]) == 5
    assert f.partial(0) == P(variables, "2*x")
    assert f.partial(1) == P(variables, "-2*y")
    assert f.total_degree() == 2
    u, v = P(variables, "x*y").evaluate_quadratic([(1, 1), (0, 2)], -1)
    # (1 + i)(2i) = -2 + 2i
    assert (u, v) == (-2, 2)
    pairs = [[list(e), str(c)] for e, c in sorted(f.terms.items())]
    assert MultiPoly(variables, pairs) == f
    assert MultiPoly.parse(variables, "Fraction(1, 2)*x") == MultiPoly(variables, [[[1, 0], "1/2"]])
    with pytest.raises(ArithdtError):
        MultiPoly.parse(variables, "z + 1")
    with pytest.raises(ArithdtError):
        MultiPoly(variables, {(0,): 1})
