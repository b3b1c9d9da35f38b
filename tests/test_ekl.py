"""Local degree classes: golden values, rank law, topological cross-checks."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from arithdt.ekl import (
    ConjugatePair,
    ekl_class,
    global_degree_univariate,
    local_degree_simple,
    milnor_chi_relation,
    milnor_number_a1,
)
from arithdt.errors import (
    ArithdtError,
    DegenerateSystemError,
    InputDataError,
    UnsupportedExtensionError,
)
from arithdt.fields import QQ, RR
from arithdt.gw import GwElement, diagonalize_symmetric
from arithdt.motivic import (
    DEFAULT_GENERATORS,
    L,
    MOT_ONE,
    MotivicClass,
    quadratic_point_generator,
)
from arithdt.multipoly import MultiPoly
from arithdt.nearby import SncData, StratumRecord


def P(variables, text):
    return MultiPoly.parse(variables, text)


H = GwElement.hyperbolic(QQ)
ONE = GwElement.one(QQ)
MINUS = GwElement.unit(QQ, -1)


# -- golden values -----------------------------------------------------------------


def test_squaring_map_degree_is_hyperbolic():
    result = ekl_class([P(("x",), "x**2")])
    assert result.gw_class.gw_equal(H)
    assert result.rank == 2
    assert result.gram == ((0, 1), (1, 0))
    assert result.distinguished_socle == P(("x",), "x")


def test_hyperbola_gradient_class():
    result = ekl_class([P(("x", "y"), "2*x"), P(("x", "y"), "-2*y")])
    assert result.gw_class == MINUS
    assert result.rank == 1
    assert result.gram == ((Fraction(-1, 4),),)


def test_cubing_map_class():
    result = ekl_class([P(("x",), "x**3")])
    assert result.gw_class.gw_equal(ONE + H)
    assert result.gram == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_milnor_numbers_golden():
    assert milnor_number_a1(P(("x", "y"), "x**2 - y**2")).gw_class == MINUS
    assert milnor_number_a1(P(("x", "y"), "x**2 + y**2")).gw_class == ONE
    cubic = milnor_number_a1(P(("x",), "x**3"))
    assert cubic.gw_class.gw_equal(H)
    assert cubic.gram == ((0, Fraction(1, 3)), (Fraction(1, 3), 0))


# -- rank equals algebra dimension across a suite -----------------------------------


RANK_SUITE = [
    (("x",), "x**2", 2),
    (("x",), "x**3", 3),
    (("x",), "x**4", 4),
    (("x", "y"), ("2*x", "-2*y"), 1),
    (("x", "y"), ("x**2", "y**2"), 4),
    (("x", "y"), ("x**3", "y**2"), 6),
    (("x", "y"), ("x**2 + y**2", "x*y"), 4),
    (("x", "y"), ("y - x**3", "y**3"), 9),
    (("x", "y"), ("3*x**2 - y**2", "-2*x*y"), 4),
    (("x", "y", "z"), ("x**2", "y**2", "z**2"), 8),
    (("x", "y", "z"), ("x**3", "y**2", "z**2"), 12),
    (("x", "y", "z"), ("2*x", "3*y", "5*z"), 1),
]


@pytest.mark.parametrize("variables,texts,expected_dim", RANK_SUITE, ids=lambda v: str(v)[:24])
def test_rank_equals_algebra_dimension(variables, texts, expected_dim):
    if isinstance(texts, str):
        texts = (texts,)
    system = [P(variables, t) for t in texts]
    result = ekl_class(system)
    assert result.algebra.dimension == expected_dim
    assert result.rank == expected_dim
    assert result.gw_class.rank() == expected_dim


def test_gram_symmetric_nondegenerate():
    for variables, texts, _ in RANK_SUITE:
        if isinstance(texts, str):
            texts = (texts,)
        result = ekl_class([P(variables, t) for t in texts])
        gram = result.gram
        n = len(gram)
        assert all(gram[i][j] == gram[j][i] for i in range(n) for j in range(n))
        # nondegeneracy was already certified by the diagonalization succeeding
        assert result.gw_class.rank() == n


# -- independence of the normalized functional ---------------------------------------


@pytest.mark.parametrize(
    "variables,texts",
    [
        (("x",), ("x**3",)),
        (("x", "y"), ("x**2", "y**2")),
        (("x", "y"), ("3*x**2 - y**2", "-2*x*y")),
        (("x", "y"), ("x**2 + y**2", "x*y")),
    ],
    ids=lambda v: str(v)[:24],
)
def test_functional_independence(variables, texts):
    rng = random.Random(41)
    base = ekl_class([P(variables, t) for t in texts])
    algebra = base.algebra
    socle_coords = algebra.coordinates(base.distinguished_socle)
    for _ in range(6):
        # default functional plus a random functional vanishing on E
        phi = list(base_functional(base))
        bump = [Fraction(rng.randint(-2, 2)) for _ in range(algebra.dimension)]
        correction = sum(b * c for b, c in zip(bump, socle_coords))
        # orthogonalize against E so that phi(E) stays 1
        pivot = next((k for k, c in enumerate(socle_coords) if c), None)
        bump[pivot] -= correction / socle_coords[pivot]
        phi = [p + b for p, b in zip(phi, bump)]
        try:
            perturbed = ekl_class([P(variables, t) for t in texts], functional=phi)
        except DegenerateSystemError:
            continue  # inadmissible perturbation; skip
        assert perturbed.gw_class.gw_equal(base.gw_class)


def base_functional(result):
    algebra = result.algebra
    socle = result.distinguished_socle
    from arithdt.groebner import grevlex_key

    lead = max(socle.terms, key=grevlex_key)
    phi = [Fraction(0)] * algebra.dimension
    phi[algebra.standard_monomials.index(lead)] = 1 / socle.terms[lead]
    return phi


# -- Gram matrix against the per-pair pairing ------------------------------------------


def per_pair_gram(result):
    """Gram matrix from one normal form per basis pair i <= j: the oracle for the row walk."""
    algebra = result.algebra
    phi = base_functional(result)
    dim = algebra.dimension
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            value = sum(
                (phi[k] * c for k, c in algebra.basis_product(i, j).items()),
                Fraction(0),
            )
            gram[i][j] = gram[j][i] = value
    return tuple(tuple(row) for row in gram)


def _dense_ternary_cubics(seed):
    rng = random.Random(seed)
    monomials = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 3]
    return [
        MultiPoly(("x", "y", "z"), {e: rng.choice((-1, 1)) for e in monomials})
        for _ in range(3)
    ]


# RANK_SUITE holds the same twelve maps as the acceptance EKL_SUITE
GRAM_CASES = [[P(v, t) for t in ((ts,) if isinstance(ts, str) else ts)] for v, ts, _ in RANK_SUITE]
GRAM_CASES += [
    P(("x", "y"), "x**6 + y**6").gradient(),
    P(("x", "y"), "x**11 + y**11").gradient(),
    P(("x", "y", "z"), "x**4 + y**4 + z**4").gradient(),
    _dense_ternary_cubics(0),
]


@pytest.mark.parametrize("system", GRAM_CASES, ids=lambda s: " | ".join(map(str, s))[:40])
def test_gram_equals_per_pair_oracle(system):
    result = ekl_class(system)
    assert result.gram == per_pair_gram(result)


def column_walk_gram(result):
    """Gram matrix from the dense row walk, entry j of row i from column j of M_{x_k}.

    The oracle for ekl_class, which walks the nonzeros of the parent row only.
    """
    algebra = result.algebra
    gram = [base_functional(result)]
    for mono in algebra.standard_monomials[1:]:
        k = next(v for v, e in enumerate(mono) if e)
        parent = gram[algebra.index[mono[:k] + (mono[k] - 1,) + mono[k + 1 :]]]
        gram.append([
            sum((parent[l] * c for l, c in column.items() if parent[l]), Fraction(0))
            for column in algebra.matrices[k]
        ])
    return tuple(tuple(row) for row in gram)


# seeds whose dense ternary cubics meet only at the origin
WALK_CASES = GRAM_CASES + [_dense_ternary_cubics(seed) for seed in (2, 3, 6)]


@pytest.mark.parametrize("system", WALK_CASES, ids=lambda s: " | ".join(map(str, s))[:40])
def test_gram_equals_column_walk_oracle(system):
    result = ekl_class(system)
    assert result.gram == column_walk_gram(result)


@pytest.mark.parametrize("system", WALK_CASES, ids=lambda s: " | ".join(map(str, s))[:40])
def test_class_equals_dense_reader_of_gram(system):
    """ekl_class eliminates its own row dicts; the public dense reader of the Gram agrees."""
    for field in (QQ, RR):
        result = ekl_class(system, field)
        assert result.gw_class == diagonalize_symmetric(result.gram, field)


def test_class_equals_dense_reader_with_dense_functional():
    # E = x^2 on Q[x]/(x^3), and phi(x^2) = 1 with every coordinate nonzero
    result = ekl_class([P(("x",), "x**3")], functional=[5, -2, 1])
    assert all(result.gram[0])
    assert result.gw_class == diagonalize_symmetric(result.gram)


# -- signature against a topological winding oracle -----------------------------------


def _winding_degree(system, radius=1e-3, samples=720):
    """Topological degree of a plane map on a small circle by angle tracking."""
    fx, fy = system

    def at(theta):
        x, y = radius * math.cos(theta), radius * math.sin(theta)
        point = [Fraction(x).limit_denominator(10**9), Fraction(y).limit_denominator(10**9)]
        return float(fx.evaluate(point)), float(fy.evaluate(point))

    total = 0.0
    prev = math.atan2(*reversed(at(0.0)))
    for k in range(1, samples + 1):
        cur = math.atan2(*reversed(at(2 * math.pi * k / samples)))
        delta = cur - prev
        while delta > math.pi:
            delta -= 2 * math.pi
        while delta < -math.pi:
            delta += 2 * math.pi
        total += delta
        prev = cur
    return round(total / (2 * math.pi))


def _sign_change_degree(poly, eps=Fraction(1, 1000)):
    left = poly.evaluate([-eps])
    right = poly.evaluate([eps])
    return ((1 if right > 0 else -1) - (1 if left > 0 else -1)) // 2


@pytest.mark.parametrize(
    "text", ["x**2", "x**3", "x**5", "-x**3"], ids=lambda t: t
)
def test_signature_matches_sign_counting_univariate(text):
    poly = P(("x",), text)
    assert ekl_class([poly]).gw_class.signature() == _sign_change_degree(poly)


@pytest.mark.parametrize(
    "texts",
    [
        ("2*x", "-2*y"),
        ("2*x", "2*y"),
        ("x**2 - y**2", "2*x*y"),       # z^2 as a plane map
        ("x**3 - 3*x*y**2", "3*x**2*y - y**3"),  # z^3
        ("3*x**2 - y**2", "-2*x*y"),
        ("x**2", "y**2"),
    ],
    ids=lambda t: str(t)[:26],
)
def test_signature_matches_winding_oracle(texts):
    system = [P(("x", "y"), t) for t in texts]
    assert ekl_class(system).gw_class.signature() == _winding_degree(system)


# -- simple zeros and global degrees ---------------------------------------------------


def test_local_degree_simple_golden():
    squaring = [P(("x",), "x**2")]
    assert local_degree_simple(squaring, [1]) == GwElement.unit(QQ, 2)
    pair = ConjugatePair(-1, ((0, 1),))
    assert local_degree_simple(squaring, pair).gw_equal(H)
    assert local_degree_simple([P(("x",), "x")], [0]) == ONE
    with pytest.raises(DegenerateSystemError):
        local_degree_simple(squaring, [0])


def test_global_degree_of_squaring_is_y_independent():
    squaring = P(("x",), "x**2")
    for y in (1, -1, 4):
        assert global_degree_univariate(squaring, y).gw_equal(H)


def test_global_degree_misc():
    assert global_degree_univariate(P(("x",), "x"), 7) == ONE
    # three simple rational zeros
    value = global_degree_univariate(P(("x",), "x**3 - x"), 0)
    assert value == MINUS + GwElement.unit(QQ, 2) * 2
    # two conjugate quadratic pairs
    quartic = global_degree_univariate(P(("x",), "x**4 + 3*x**2 + 2"), 0)
    assert quartic.gw_equal(H * 2)


def test_global_degree_error_paths():
    with pytest.raises(DegenerateSystemError):
        global_degree_univariate(P(("x",), "x**2"), 0)  # double root
    with pytest.raises(UnsupportedExtensionError):
        global_degree_univariate(P(("x",), "x**3"), 2)  # irreducible cubic fiber
    with pytest.raises(ArithdtError):
        global_degree_univariate(P(("x", "y"), "x*y"), 1)


def test_field_parameter_renormalizes():
    # over R the class <2> + <1> collapses to 2<1>
    result = ekl_class([P(("x",), "x**3")], RR)
    assert result.gw_class.field == RR
    assert result.gw_class.rank() == 3


# -- the Milnor-number/nearby-class comparison -----------------------------------------


def hyperbola_local_strata():
    return SncData(
        [
            StratumRecord.of([1], MotivicClass.zero()),
            StratumRecord.of([2], MotivicClass.zero()),
            StratumRecord.of([1, 2], MOT_ONE),
        ],
        2,
    )


def test_milnor_relation_hyperbola():
    report = milnor_chi_relation(P(("x", "y"), "x**2 - y**2"), hyperbola_local_strata())
    assert report.agrees
    assert report.lhs.even.gw_equal(ONE - MINUS)
    assert report.rhs.gw_equal(ONE - MINUS)


def test_milnor_relation_degenerate_input_is_reported_not_raised():
    report = milnor_chi_relation(P(("x", "y"), "x**2 - y**2"), SncData([], 2))
    assert not report.agrees
    assert "differ" in report.note


def test_milnor_relation_sum_of_squares():
    # blow-up of the origin: exceptional P^1 with multiplicity 2 whose double
    # cover is a conic with two conjugate points removed, plus the strict
    # transform of the conjugate line pair meeting it in Spec Q(i)
    gen = quadratic_point_generator(-1)
    generators = dict(DEFAULT_GENERATORS)
    generators[gen.name] = gen
    pair = MotivicClass.generator(gen.name)
    strata = SncData(
        [
            StratumRecord.of([1], L + 1 - pair, {1: 2}),
            StratumRecord.of([2], MotivicClass.zero()),
            StratumRecord.of([1, 2], pair, {1: 2, 2: 1}),
        ],
        2,
    )
    assert [s.monodromy_order for s in strata.strata] == [2, 1, 1]
    report = milnor_chi_relation(P(("x", "y"), "x**2 + y**2"), strata, generators=generators)
    assert report.agrees
    assert report.rhs.gw_equal(GwElement.zero(QQ))


def test_milnor_relation_requires_strata():
    with pytest.raises(InputDataError):
        milnor_chi_relation(P(("x", "y"), "x**2 - y**2"), None)
