"""Local degree classes: golden values, rank law, topological cross-checks."""

import functools
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from arithdt.degrees import (
    ConjugatePair,
    global_degree_univariate,
    local_degree_simple,
    milnor_chi_relation,
    milnor_number_a1,
)
from arithdt.ekl import ekl_class
from arithdt.errors import ArithdtError, DegenerateSystemError, InputDataError
from arithdt.factor import factorize
from arithdt.fields import CC, QQ, RR, finite_field, linear_sum, squarefree_part
from arithdt.groebner import buchberger, grevlex_key, leading_monomial, normal_form
from arithdt.gw import GwElement, diagonalize_symmetric, trace_form
from arithdt.gwalpha import DEFAULT_GENERATORS
from arithdt.motivic import (
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
    socle_coords = [Fraction(0)] * algebra.dimension
    for e, c in base.distinguished_socle.terms.items():
        socle_coords[algebra.index[e]] = c
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


# -- the Bezoutian: a second form with the same class ----------------------------------


def bezoutian_class(system, field=QQ):
    """The class of the Bezoutian form of the map (Brazelton-McKean-Pauli), over ``field``.

    Bez = det Delta in Q[X, Y], with Delta_ij = (f_i(Y_<j, X_>=j) - f_i(Y_<=j, X_>j)) /
    (X_j - Y_j), each term from (X^a - Y^a) / (X - Y) = sum of X^k Y^(a-1-k).  Reduced
    mod (f(X), f(Y)), it is sum B[a][b] X^a Y^b over pairs of standard monomials, and B
    is the Gram matrix.  The algebra is supported at the origin, so the global class is
    the local one that ekl_class reads off a different matrix, from det J and a functional.
    """
    algebra = ekl_class(system, field).algebra
    n = len(system)
    names = tuple(f"X{i}" for i in range(n)) + tuple(f"Y{i}" for i in range(n))
    zeros = (0,) * n

    def delta(f, j):
        pairs = []
        for e, c in f.terms.items():
            for k in range(e[j]):
                x, y = zeros[:j] + (k,) + e[j + 1:], e[:j] + (e[j] - 1 - k,) + zeros[j + 1:]
                pairs.append((x + y, c))
        return MultiPoly(names, dict(linear_sum(pairs)))

    rows = [[delta(f, j) for j in range(n)] for f in system]
    bez = MultiPoly(names)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
        term = MultiPoly.constant(names, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        bez = bez + term
    # the reduced bases of f(X) and f(Y) have leading monomials in disjoint variables,
    # so together they are already a Groebner basis of (f(X), f(Y))
    lms = [m + zeros for m in algebra.leading_monomials] + [zeros + m for m in algebra.leading_monomials]
    basis = [MultiPoly(names, {e + zeros: c for e, c in g.terms.items()}) for g in algebra.groebner]
    basis += [MultiPoly(names, {zeros + e: c for e, c in g.terms.items()}) for g in algebra.groebner]
    reduced = normal_form(bez, basis, lms).terms
    monomials = algebra.standard_monomials
    return diagonalize_symmetric([[reduced.get(a + b, 0) for b in monomials] for a in monomials], field)


def _generic_map(seed):
    """Generic forms in two or three variables, the first sheared by a linear multiple of
    the second: the ideal, and so the zero at the origin, is that of the forms."""
    rng = random.Random(seed)
    names = ("x", "y", "z")[: rng.choice((2, 2, 3))]
    n = len(names)
    system = []
    for _ in names:
        d = rng.randint(2, 4) if n == 2 else 2
        forms = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
        system.append(MultiPoly(names, {e: rng.randint(-3, 3) for e in forms}))
    linear = [tuple(int(i == v) for i in range(n)) for v in range(n)]
    system[0] = system[0] + MultiPoly(names, {e: rng.randint(-2, 2) for e in linear}) * system[1]
    return system


# seeds 0 and 28 give forms with a common line of zeros, which ekl_class refuses;
# the 19 walk cases and these 28 maps take about 3 s over Q and R together
GENERIC_MAPS = [_generic_map(seed) for seed in range(30) if seed not in (0, 28)]


@pytest.mark.parametrize("system", WALK_CASES + GENERIC_MAPS, ids=lambda s: " | ".join(map(str, s))[:40])
def test_class_equals_the_bezoutian_class(system):
    for field in (QQ, RR):
        assert bezoutian_class(system, field).gw_equal(ekl_class(system, field).gw_class)


def test_the_bezoutian_oracle_sees_a_wrong_socle_scale_or_sign():
    # a socle scaled by 2 or by -1 multiplies the class by <2> or <-1>: over Q each changes
    # it on 11 of the 19 walk cases (a hyperbolic class absorbs both)
    scale, sign = GwElement.unit(QQ, 2), GwElement.unit(QQ, -1)
    missed = {"scale": 0, "sign": 0}
    for system in WALK_CASES:
        bez, ekl = bezoutian_class(system), ekl_class(system).gw_class
        missed["scale"] += bez.gw_equal(scale * ekl)
        missed["sign"] += bez.gw_equal(sign * ekl)
    assert missed == {"scale": 8, "sign": 8}


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


@pytest.mark.parametrize("coords,shown", [((1,), "1"), (((1, 2, 3), (1, 1)), "(1, 2, 3)"),
                                          (((1, 1), [0]), "[0]")], ids=["int", "triple", "single"])
def test_a_coordinate_that_is_not_a_pair_is_refused(coords, shown):
    plane = [P(("x", "y"), "x"), P(("x", "y"), "y")]
    message = re.escape(f"coordinate must be a (u, v) pair, got {shown}")
    with pytest.raises(InputDataError, match=message):
        ConjugatePair(2, coords)
    # a pair made past the constructor is refused where it is evaluated
    pair = object.__new__(ConjugatePair)
    pair._assign(2, coords)
    with pytest.raises(InputDataError, match=message):
        local_degree_simple(plane, pair)
    with pytest.raises(InputDataError, match=message):
        plane[0].evaluate_quadratic(coords, 2)


@pytest.mark.parametrize("call,message", [
    (lambda: local_degree_simple([P(("x",), "x")], 5), "point must be a list or a tuple, got 5"),
    (lambda: P(("x",), "x").evaluate(5), "point must be a list or a tuple, got 5"),
    (lambda: P(("x",), "x").evaluate_quadratic(5, 2), "point must be a list or a tuple, got 5"),
    (lambda: ConjugatePair(2, 5), "coords must be a list or a tuple, got 5"),
], ids=["local-degree", "evaluate", "evaluate-quadratic", "conjugate-pair"])
def test_a_point_that_is_not_a_sequence_is_refused(call, message):
    with pytest.raises(InputDataError, match=f"^{message}$"):
        call()


def test_global_degree_of_squaring_is_y_independent():
    squaring = P(("x",), "x**2")
    for y in (1, -1, 4):
        assert global_degree_univariate(squaring, y).gw_equal(H)


# List-coefficient polynomial arithmetic for the oracles: c[k] is the coefficient of x^k.


def _poly_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _poly_deriv(c):
    return [k * c[k] for k in range(1, len(c))]


def _poly_divmod(a, b):
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(_poly_trim(a)) >= len(b):
        k = len(a) - len(b)
        q[k] = a[-1] / b[-1]
        for i, bc in enumerate(b):
            a[k + i] -= q[k] * bc
        a.pop()  # the leading term cancels exactly
    return _poly_trim(q), a


def _poly_gcd_is_constant(a, b):
    """Euclid with monic remainders, so the coefficients stay small."""
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        r = _poly_divmod(a, b)[1]
        a, b = b, [x / r[-1] for x in r] if r else r
    return len(a) <= 1


# The per-root route the library used before the residue form, kept as an oracle:
# <f'(r)> at each rational root r, found among the ratios of divisors of the end
# coefficients, then the transfer from Q(sqrt(d)) of each quadratic factor, found by a
# Kronecker search; any other irreducible factor is refused.


def _poly_eval(c, x):
    total = Fraction(0)
    for coeff in reversed(c):
        total = total * x + coeff
    return total


def _divisors(n):
    """Positive and negative divisors of n != 0, ascending."""
    pos = [1]
    for p, e in factorize(n).items():
        pos = [d * p**k for d in pos for k in range(e + 1)]
    return sorted(pos + [-d for d in pos])


def _primitive_integer(c):
    denom = math.lcm(*(x.denominator for x in c))
    ints = [int(x * denom) for x in c]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g else ints


def _rational_roots(c):
    roots = []
    work = c[:]
    while work and work[0] == 0:
        roots.append(Fraction(0))
        work = work[1:]
    ints = _primitive_integer(work)
    if len(ints) <= 1:
        return sorted(set(roots))
    cands = {Fraction(p, q) for p in _divisors(ints[0]) for q in _divisors(ints[-1]) if q > 0}
    roots += [x for x in cands if _poly_eval(work, x) == 0]
    return sorted(set(roots))


def _kronecker_quadratic_factor(c):
    """A quadratic factor through divisor triples of the values at -1, 0, 1, or None."""
    ints = [Fraction(x) for x in _primitive_integer(c)]
    vals = [_poly_eval(ints, Fraction(t)) for t in (-1, 0, 1)]
    if any(v == 0 for v in vals):
        return None
    for d0 in _divisors(int(vals[1])):
        for d1 in _divisors(int(vals[2])):
            for dm1 in _divisors(int(vals[0])):
                if (d1 + dm1) % 2 or (d1 - dm1) % 2:
                    continue
                c2 = (d1 + dm1) // 2 - d0
                c1 = (d1 - dm1) // 2
                if c2 == 0:
                    continue
                g = [Fraction(d0), Fraction(c1), Fraction(c2)]
                if not _poly_divmod(ints, g)[1]:
                    return g
    return None


class UnsupportedExtensionError(ArithdtError):
    """A residue field extension beyond quadratic is required but unsupported."""


def per_root_global_degree(coeffs, field=QQ):
    """Sum of the local degrees over the rational and quadratic points of f = 0."""
    deriv = _poly_deriv(coeffs)
    total = GwElement.zero(field)
    remaining = coeffs[:]
    for root in _rational_roots(coeffs):
        total = total + GwElement.unit(field, _poly_eval(deriv, root))
        remaining, rem = _poly_divmod(remaining, [-root, Fraction(1)])
        assert not rem
    while len(remaining) - 1 >= 2:
        quad = remaining if len(remaining) == 3 else _kronecker_quadratic_factor(remaining)
        if quad is None:
            raise UnsupportedExtensionError("irreducible fiber factor of degree >= 3")
        c0, c1, c2 = quad
        pp, qq = c1 / c2, c0 / c2
        disc = pp * pp - 4 * qq
        d = squarefree_part(disc.numerator * disc.denominator)
        ratio = disc / d
        s = Fraction(math.isqrt(ratio.numerator), math.isqrt(ratio.denominator))
        assert s * s == ratio
        # the root -pp/2 + (s/2) sqrt(d), and f' there as u + v sqrt(d)
        u, v = _poly(deriv).evaluate_quadratic(((-pp / 2, s / 2),), d)
        total = total + trace_form(d, u, v).to_field(field)
        remaining, rem = _poly_divmod(remaining, quad)
        assert not rem
    return total


def trace_form_gram(coeffs):
    """Gram matrix of (a, b) -> Tr(a b / f'(x)) on Q[x]/(f), from the companion matrix.

    M is multiplication by x on the basis 1, x, ..., x^(n-1); the trace of
    M^(i+j) f'(M)^-1 is the (i, j) entry.  A sum over the roots of f, so it is
    the residue form whatever the residue fields are.
    """
    n = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs]
    comp = [[Fraction(int(i == j + 1)) for j in range(n)] for i in range(n)]
    for i in range(n):
        comp[i][n - 1] = -monic[i]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    deriv = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(_poly_deriv(coeffs)):  # Horner on matrices
        deriv = mul(deriv, comp)
        for i in range(n):
            deriv[i][i] += c
    # Gauss-Jordan inverse of f'(M), a unit since f is square-free
    work = [row[:] + ident[i][:] for i, row in enumerate(deriv)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col])
        work[col], work[piv] = work[piv], work[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    inverse = [row[n:] for row in work]
    powers = [ident]
    for _ in range(2 * n - 2):
        powers.append(mul(powers[-1], comp))
    traces = [sum(m[i][k] * inverse[k][i] for i in range(n) for k in range(n)) for m in powers]
    return [[traces[i + j] for j in range(n)] for i in range(n)]


def _coeffs(p, y=0):
    out = [Fraction(0)] * (p.total_degree() + 1)
    for e, c in p.terms.items():
        out[e[0]] = c
    out[0] -= y
    return out


def _poly(coeffs):
    return MultiPoly(("x",), [([k], c) for k, c in enumerate(coeffs) if c])


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            out[i + j] += x * z
    return out


def _fibers_with_quadratic_points(count, seed):
    """(f, y) with f - y = lead * (product of x - r) * (product of x^2 + b x + e), square-free."""
    rng = random.Random(seed)
    roots = sorted({Fraction(a, q) for a in range(-5, 6) for q in (1, 2, 3)})
    out = []
    while len(out) < count:
        n_roots, n_quads = rng.randint(0, 3), rng.randint(0, 2)
        if n_roots + n_quads == 0 or n_roots + 2 * n_quads > 6:
            continue
        f = [Fraction(rng.choice((1, -1, 2, -3, 5)))]
        for r in rng.sample(roots, n_roots):
            f = _poly_mul(f, [-r, Fraction(1)])
        for _ in range(n_quads):
            f = _poly_mul(f, [Fraction(rng.randint(-6, 8)), Fraction(rng.randint(-4, 4)), Fraction(1)])
        if _poly_gcd_is_constant(f, _poly_deriv(f)):
            y = rng.randint(-4, 4)
            out.append((_poly([f[0] + y] + f[1:]), y))
    return out


FIBERS = _fibers_with_quadratic_points(320, seed=12)


def hankel_global_degree(coeffs, field=QQ):
    """The residue form's Hankel Gram matrix s_(i+j), diagonalized.

    s_k = sum over the roots t of t^k / f'(t) is 0 for k < n - 1 and 1/c at
    k = n - 1, and follows f's own recurrence after that (the route the
    library took before the closed form).
    """
    n, lead = len(coeffs) - 1, coeffs[-1]
    s = [Fraction(0)] * (n - 1) + [1 / lead]
    for k in range(n, 2 * n - 1):
        s.append(-sum(coeffs[i] * s[k - n + i] for i in range(n)) / lead)
    return diagonalize_symmetric([[s[i + j] for j in range(n)] for i in range(n)], field)


def test_global_degree_matches_per_root_route():
    for p, y in FIBERS:
        f = _coeffs(p, y)
        for field in (QQ, RR, CC):
            assert global_degree_univariate(p, y, field).gw_equal(per_root_global_degree(f, field)), (p, y)


def test_global_degree_matches_hankel_oracle():
    for p, y in FIBERS:
        f = _coeffs(p, y)
        for field in (QQ, RR, CC):
            assert global_degree_univariate(p, y, field).gw_equal(hankel_global_degree(f, field)), (p, y)


def _answer(fn):
    try:
        return fn()
    except ArithdtError:
        return None


def test_global_degree_is_the_rational_class_read_over_each_field():
    for field in (RR, CC, finite_field(5), finite_field(7)):
        for p, y in FIBERS:
            rational = _answer(lambda: global_degree_univariate(p, y, QQ).to_field(field))
            if rational is not None:
                assert global_degree_univariate(p, y, field) == rational, (field, p, y)


def test_global_degree_matches_per_root_route_over_finite_fields():
    # the closed form is refused over F_p exactly when n is odd and the leading
    # coefficient c is not a p-unit; the per-root route, which reduces f'(r) and
    # the trace-form entries mod p, answers no fiber the closed form refuses
    answered = 0
    for field in (finite_field(5), finite_field(7)):
        for p, y in FIBERS:
            f = _coeffs(p, y)
            n, lead = len(f) - 1, f[-1]
            new = _answer(lambda: global_degree_univariate(p, y, field))
            old = _answer(lambda: per_root_global_degree(f, field))
            unit = lead.numerator % field.p and lead.denominator % field.p
            assert (new is None) == (n % 2 == 1 and not unit), (field, p, y)
            if old is not None:
                assert new is not None and new.gw_equal(old), (field, p, y)
            answered += new is not None
    assert answered == 611


def test_global_degree_of_degree_100_answers_in_seconds():
    rng = random.Random(100)
    coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(100)] + [Fraction(3)]
    start = time.perf_counter()
    value = global_degree_univariate(_poly(coeffs), 0)
    assert time.perf_counter() - start < 10
    assert value.gw_equal(H * 50)


def _integer_fibers(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 6))] + [Fraction(rng.choice((1, -1, 2, 3)))]
        if _poly_gcd_is_constant(f, _poly_deriv(f)):
            out.append(_poly(f))
    return out


IRREDUCIBLE = ["x**3 - 2", "x**3 - x - 1", "2*x**3 + 3*x + 5", "x**4 - 2", "x**4 + x + 1", "x**4 - 10*x**2 + 1"]


def test_global_degree_matches_trace_form_oracle():
    fibers = [P(("x",), t) for t in IRREDUCIBLE] + _integer_fibers(150, seed=5)
    refused = 0
    for p in fibers:
        f = _coeffs(p)
        gram = trace_form_gram(f)
        for field in (QQ, RR, CC):
            assert global_degree_univariate(p, 0, field).gw_equal(diagonalize_symmetric(gram, field)), p
        refused += _answer(lambda: per_root_global_degree(f)) is None
    # irreducible cubics and quartics among them, which only the residue form answers
    assert refused == 111


# -- the real degree of a binary map, counted exactly ------------------------------------


def _sign(x):
    return (x > 0) - (x < 0)


def tarski_query(q, p):
    """TaQ(q, p), the sum of sign q(t) over the real roots t of p: the sign changes at
    -inf less those at +inf of the signed remainder sequence of p and p' q
    (Basu-Pollack-Roy, *Algorithms in Real Algebraic Geometry*, Theorem 2.58)."""
    sequence = [_poly_trim(p[:]), _poly_trim(_poly_mul(_poly_deriv(p), q))]
    while sequence[-1]:
        sequence.append([-c for c in _poly_divmod(sequence[-2], sequence[-1])[1]])
    sequence.pop()

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_plus = [_sign(r[-1]) for r in sequence]
    at_minus = [_sign(r[-1]) * (-1) ** (len(r) - 1) for r in sequence]
    return changes(at_minus) - changes(at_plus)


def real_degree(f1, f2, d):
    """The local degree at the origin of two binary forms of degree d, {(i, j): c} for
    c x^i y^j, with only the origin as common zero; None if (1, 0) is not a regular
    value seen in the chart x = 1.

    The degree of a homogeneous map is the sum of sign det J over the preimages of a
    regular value (Eisenbud-Levine, Khimshiashvili: the signature of the EKL form).
    The preimages of (1, 0) are s (1, t) with f2(1, t) = 0 and s^d f1(1, t) = 1, and
    det J there has the sign of det J(1, t).  For d odd each real root t gives one s;
    for d even, two when f1(1, t) > 0 and none when f1(1, t) < 0.  So the degree is
    TaQ(J, f2) for d odd and TaQ(J, f2) + TaQ(J f1, f2) for d even.
    """

    def at(form, di, dj):  # d^(di + dj) form / dx^di dy^dj at (1, t), a polynomial in t
        out = [Fraction(0)] * (d + 1)
        for (i, j), c in form.items():
            if i >= di and j >= dj:
                out[j - dj] += c * math.perm(i, di) * math.perm(j, dj)
        return _poly_trim(out)

    g1, g2 = at(f1, 0, 0), at(f2, 0, 0)
    jacobian = _poly_trim([a - b for a, b in itertools.zip_longest(
        _poly_mul(at(f1, 1, 0), at(f2, 0, 1)), _poly_mul(at(f1, 0, 1), at(f2, 1, 0)), fillvalue=0)])
    # f2(0, 1) != 0 puts every preimage in the chart; no root of f2(1, t) may make J vanish
    if len(g2) != d + 1 or not _poly_gcd_is_constant(g2, jacobian):
        return None
    degree = tarski_query(jacobian, g2)
    if d % 2 == 0:
        degree += tarski_query(_poly_mul(jacobian, g1), g2)
    return degree


def _binary_maps(seed, count):
    """``count`` pairs of dense +-1 binary forms of degrees 4-10 with only the origin
    as common zero and (1, 0) a regular value in the chart x = 1, with their degree."""
    rng = random.Random(seed)
    maps = []
    while len(maps) < count:
        d = rng.randint(4, 10)
        f1, f2 = ({(d - j, j): Fraction(rng.choice((-1, 1))) for j in range(d + 1)} for _ in range(2))
        coprime = _poly_gcd_is_constant([f1[d - j, j] for j in range(d + 1)],
                                        [f2[d - j, j] for j in range(d + 1)])
        if coprime and (degree := real_degree(f1, f2, d)) is not None:
            maps.append((d, f1, f2, degree))
    return maps


def test_signature_over_r_is_the_real_degree_of_binary_maps():
    """40 maps in ~1 s: the EKL signature over R is the count of real preimages."""
    start = time.perf_counter()
    seen = set()
    for d, f1, f2, degree in _binary_maps(seed=12, count=40):
        system = [MultiPoly(("x", "y"), form) for form in (f1, f2)]
        assert ekl_class(system, RR).gw_class.signature() == degree, (f1, f2)
        seen.add((d % 2, degree))
    assert time.perf_counter() - start < 20
    # both parities of d, and degrees of both signs, are checked
    assert {parity for parity, _ in seen} == {0, 1}
    assert min(degree for _, degree in seen) < 0 < max(degree for _, degree in seen)


# -- signature against Hermite's count on a regular fibre ------------------------------


def _jacobian_determinant(system):
    names = system[0].variables
    rows = [f.gradient() for f in system]
    det = MultiPoly(names)
    for perm in itertools.permutations(range(len(system))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = MultiPoly.constant(names, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        det = det + term
    return det


def _fibre(system, y):
    """The reduced grevlex basis of (f - y), its leading monomials, and B's basis: the
    standard monomials, walked up from 1 (``of_ideal`` refuses an ideal not at the origin)."""
    names = system[0].variables
    basis = buchberger([f - MultiPoly.constant(names, c) for f, c in zip(system, y)])
    lms = [leading_monomial(g) for g in basis]
    monomials, frontier = [], [(0,) * len(names)]
    seen = set(frontier)
    while frontier:
        m = frontier.pop()
        if not any(all(a <= b for a, b in zip(lm, m)) for lm in lms):
            monomials.append(m)
            for k in range(len(names)):
                up = m[:k] + (m[k] + 1,) + m[k + 1:]
                if up not in seen:
                    seen.add(up)
                    frontier.append(up)
    return basis, lms, sorted(monomials, key=grevlex_key)


def _rank(rows):
    rows, rank = [list(r) for r in rows], 0
    for c in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is not None:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for r in range(rank + 1, len(rows)):
                factor = rows[r][c] / rows[rank][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
    return rank


def _signature(gram):
    """Signature of a symmetric rational matrix, by Lagrange's congruence reduction."""
    a, signature = [list(row) for row in gram], 0
    while a:
        n = len(a)
        p = next((i for i in range(n) if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in range(n) for j in range(n) if a[i][j]), None)
            if pair is None:
                break  # the rest of the form is zero
            p, j = pair  # x_p -> x_p + x_j makes the diagonal entry 2 a[p][j]
            a[p] = [u + v for u, v in zip(a[p], a[j])]
            for row in a:
                row[p] += row[j]
        signature += 1 if a[p][p] > 0 else -1
        rest = [k for k in range(n) if k != p]
        a = [[a[r][c] - a[r][p] * a[p][c] / a[p][p] for c in rest] for r in rest]
    return signature


def hermite_degree(system, y):
    """The sum of sign det J over the real points of the fibre f = y: the signature of
    Hermite's form (a, b) -> Tr_{B/Q}(det J a b) on B = Q[x]/(f - y) (Pedersen-Roy-
    Szpirglas 1993; Becker-Woermann 1994).  None if y is not a regular value, that is,
    if multiplication by det J is not invertible on B.

    The form is naive: Tr(M_b) for each basis monomial b, from the products of all pairs,
    then t(det J b_i b_j) for every pair, each one normal form."""
    names = system[0].variables
    basis, lms, monomials = _fibre(system, y)

    def coords(p):
        terms = normal_form(p, basis, lms).terms
        return [terms.get(m, Fraction(0)) for m in monomials]

    b = [MultiPoly(names, {m: 1}) for m in monomials]
    dim = len(b)
    products = {(i, j): coords(b[i] * b[j]) for i in range(dim) for j in range(i, dim)}
    trace = [sum(products[min(k, l), max(k, l)][l] for l in range(dim)) for k in range(dim)]
    det = _jacobian_determinant(system)
    weighted = [coords(det * bi) for bi in b]
    if _rank(weighted) < dim:
        return None
    weighted = [MultiPoly(names, dict(zip(monomials, w))) for w in weighted]
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            gram[i][j] = gram[j][i] = sum(c * t for c, t in zip(coords(weighted[i] * b[j]), trace))
    return _signature(gram)


@functools.cache
def _hermite_cases():
    """Dense +-1 homogeneous maps in 2 variables of degree 2-5 and in 3 of degree 2-3,
    over seeds 0-2, that ekl_class accepts, each with the first regular value y of
    entries in [-3, 3] drawn, and Hermite's count on the fibre over it."""
    cases = []
    for seed, (n, d) in itertools.product(range(3), ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3))):
        rng = random.Random(f"{seed}-{n}-{d}")
        names = ("x", "y", "z")[:n]
        forms = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
        system = [MultiPoly(names, {e: rng.choice((-1, 1)) for e in forms}) for _ in names]
        try:
            ekl_class(system)
        except ArithdtError:  # the forms have a common zero besides the origin
            continue
        for _ in range(10):
            y = tuple(rng.randint(-3, 3) for _ in names)
            if (degree := hermite_degree(system, y)) is not None:
                cases.append((system, y, degree))
                break
        else:
            raise AssertionError(f"no regular value found for {system}")
    return cases


def test_signature_over_r_is_hermites_count_on_a_regular_fibre():
    """16 maps, dims 4-27, in ~3 s: the EKL signature over R is the real degree.

    f homogeneous with an isolated zero is proper, so its local degree at 0 is the sum
    of sign det J over the real preimages of a regular value (Eisenbud-Levine,
    Khimshiashvili), which Hermite's form counts exactly."""
    start = time.perf_counter()
    seen = []
    for system, y, degree in _hermite_cases():
        assert ekl_class(system, RR).gw_class.signature() == degree, (system, y)
        seen.append(degree)
    assert time.perf_counter() - start < 30
    # both signs, so a dropped or sign-flipped det J is seen
    assert len(seen) == 16 and min(seen) < 0 < max(seen)


def test_hermite_fibre_basis_is_sympys():
    # the fibre's basis is the oracle's own: checked against an independent Groebner basis
    sympy = pytest.importorskip("sympy")
    for system, y, _ in _hermite_cases():
        symbols = sympy.symbols(system[0].variables)

        def expr(p):
            return sum(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(s**e for s, e in zip(symbols, m))) for m, c in p.terms.items())

        theirs = sympy.groebner([expr(f) - c for f, c in zip(system, y)], *symbols, order="grevlex")
        basis, _, monomials = _fibre(system, y)
        assert {sympy.expand(expr(g)) for g in basis} == {
            sympy.expand(g / sympy.Poly(g, *symbols).LC(order="grevlex")) for g in theirs.exprs}
        # no zero at infinity: B has Bezout's dimension, the product of the degrees
        assert len(monomials) == math.prod(f.total_degree() for f in system)


def test_global_degree_is_hyperbolic_but_for_the_leading_coefficient():
    # s_k = 0 for k < n - 1 makes the first n // 2 basis vectors totally isotropic,
    # so the class is (n // 2) H, plus <c> when n is odd: y and the lower
    # coefficients never show in it
    for p, y in FIBERS:
        n, lead = p.total_degree(), _coeffs(p)[-1]
        expected = H * (n // 2) + (GwElement.unit(QQ, lead) if n % 2 else GwElement.zero(QQ))
        assert global_degree_univariate(p, y).gw_equal(expected), (p, y)


def test_global_degree_misc():
    assert global_degree_univariate(P(("x",), "x"), 7) == ONE
    # three simple rational zeros: the closed form H + <1> is another diagonal representative
    value = global_degree_univariate(P(("x",), "x**3 - x"), 0)
    assert value == ONE * 2 + MINUS
    assert value.gw_equal(MINUS + GwElement.unit(QQ, 2) * 2)
    # two conjugate quadratic pairs
    quartic = global_degree_univariate(P(("x",), "x**4 + 3*x**2 + 2"), 0)
    assert quartic.gw_equal(H * 2)


def test_global_degree_error_paths():
    with pytest.raises(DegenerateSystemError):
        global_degree_univariate(P(("x",), "x**2"), 0)  # double root
    with pytest.raises(DegenerateSystemError):
        global_degree_univariate(P(("x",), "3"), 0)  # constant map
    with pytest.raises(ArithdtError):
        global_degree_univariate(P(("x", "y"), "x*y"), 1)
    # an irreducible cubic fiber, Q(cbrt 2): one real point, one complex pair
    cubic = global_degree_univariate(P(("x",), "x**3"), 2)
    assert cubic.gw_equal(diagonalize_symmetric(trace_form_gram(_coeffs(P(("x",), "x**3 - 2")))))
    assert (cubic.rank(), cubic.signature()) == (3, 1)


def test_global_degree_with_large_coefficients_answers_at_once():
    start = time.perf_counter()
    value = global_degree_univariate(P(("x",), "x**6 + 963761198400"), 0)
    assert time.perf_counter() - start < 1
    assert (value.rank(), value.signature()) == (6, 0)


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
    # the monodromy orders m_I, the gcds of the multiplicities
    assert [math.gcd(*(n for _, n in s.multiplicities)) for s in strata.strata] == [2, 1, 1]
    report = milnor_chi_relation(P(("x", "y"), "x**2 + y**2"), strata, generators=generators)
    assert report.agrees
    assert report.rhs.gw_equal(GwElement.zero(QQ))


def test_milnor_relation_requires_strata():
    with pytest.raises(InputDataError):
        milnor_chi_relation(P(("x", "y"), "x**2 - y**2"), None)
