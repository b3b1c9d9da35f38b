"""Grothendieck-Witt arithmetic: golden values, invariants, local symbols."""

import random
import time
from fractions import Fraction

import pytest

from arithdt import forms
from arithdt.errors import (
    ArithdtError,
    FieldMismatchError,
    InputDataError,
    SingularMatrixError,
    UnsupportedFieldError,
)
from arithdt.fields import CC, QQ, RR, finite_field, prime_factors, squarefree_part
from arithdt.forms import hasse_invariant, hilbert_symbol
from arithdt.gw import GwElement, diagonalize_symmetric, trace_form
from arithdt.gwalpha import GaussianInteger, GwAlphaElement, alpha_power
from arithdt.motivic import MotivicClass, chi_a1
from arithdt.squares import SquareClass, square_class_rep

F5 = finite_field(5)
ALL_FIELDS = (QQ, RR, CC, F5)


def unit(a, field=QQ):
    return GwElement.unit(field, a)


def hyper(field=QQ):
    return GwElement.hyperbolic(field)


# -- square classes -------------------------------------------------------------


def test_squarefree_part():
    assert squarefree_part(4) == 1
    assert squarefree_part(-4) == -1
    assert squarefree_part(60) == 15
    assert squarefree_part(1) == 1
    with pytest.raises(ArithdtError):
        squarefree_part(0)


def test_square_class_reps_per_field():
    assert square_class_rep(QQ, Fraction(-3, 7)) == -21
    assert square_class_rep(QQ, Fraction(8)) == 2
    assert square_class_rep(RR, Fraction(-9, 2)) == -1
    assert square_class_rep(CC, -5) == 1
    assert square_class_rep(F5, 4) == 1
    assert square_class_rep(F5, 3) == 2  # least nonresidue mod 5
    with pytest.raises(ArithdtError):
        square_class_rep(F5, 10)  # not a unit mod 5


def test_square_class_collapses_squares():
    assert SquareClass.of(QQ, 18) == SquareClass.of(QQ, 2)
    assert SquareClass.of(QQ, Fraction(1, 2)) == SquareClass.of(QQ, 2)
    with pytest.raises(ArithdtError):
        SquareClass(QQ, 4)  # not canonical


# -- basic ring operations --------------------------------------------------------


def test_add_golden():
    assert unit(1) + unit(-1) == hyper()
    q = unit(2) + unit(3) * 2
    assert q + GwElement.zero(QQ) == q
    assert (unit(2) + unit(2) * (-1)).is_zero()


def test_add_field_mismatch():
    with pytest.raises(FieldMismatchError):
        unit(1, QQ) + unit(1, RR)


def test_mul_golden():
    assert (unit(2) * hyper()).gw_equal(hyper())
    assert unit(2) * unit(2) == unit(1)
    assert unit(2) * unit(3) == unit(6)


def test_mul_absorbs_hyperbolic_for_many_units():
    for a in (2, -3, 5, 7, Fraction(11, 3)):
        assert (unit(a) * hyper()).gw_equal(hyper())


def test_rank():
    assert hyper().rank() == 2
    assert GwElement.zero(QQ).rank() == 0
    assert (unit(1) * 3 + unit(-1) * 2).rank() == 5


def test_signature():
    assert hyper().signature() == 0
    assert unit(1).signature() == 1
    assert (unit(1) * 3 + unit(-1) * 2).signature() == 1
    with pytest.raises(UnsupportedFieldError):
        unit(1, CC).signature()
    with pytest.raises(UnsupportedFieldError):
        unit(1, F5).signature()


def test_discriminant():
    assert hyper().discriminant() == SquareClass.of(QQ, -1)
    assert unit(1).discriminant() == SquareClass.of(QQ, 1)
    assert (unit(2) + unit(3)).discriminant() == SquareClass.of(QQ, 6)
    with pytest.raises(ArithdtError):
        (unit(2) * (-1)).discriminant()


# -- hilbert symbols ---------------------------------------------------------------


def test_hilbert_infinite_place():
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(-1, 2, "inf") == 1
    assert hilbert_symbol(3, 5, "inf") == 1
    for place in (float("inf"), "x"):
        with pytest.raises(ArithdtError):
            hilbert_symbol(-1, -1, place)


def test_hilbert_square_argument_trivial():
    for b in (2, -3, 5, 10):
        for p in (2, 3, 5, 7):
            assert hilbert_symbol(1, b, p) == 1


def _solvable_mod8(a, b):
    # does a x^2 + b y^2 = z^2 have a solution mod 8 with x, y, z not all even?
    for x in range(8):
        for y in range(8):
            for z in range(8):
                if x % 2 == y % 2 == z % 2 == 0:
                    continue
                if (a * x * x + b * y * y - z * z) % 8 == 0:
                    return True
    return False


def test_hilbert_minus_one_minus_one_at_two_against_enumeration():
    # frozen from the mod-8 search: -x^2 - y^2 = z^2 has only even solutions
    assert _solvable_mod8(-1, -1) is False
    assert hilbert_symbol(-1, -1, 2) == -1
    # a contrasting solvable case
    assert _solvable_mod8(-1, 2) is True
    assert hilbert_symbol(-1, 2, 2) == 1


SMALL = (-6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 10)
PLACES = (2, 3, 5, 7, "inf")


def test_hilbert_symmetry_and_bimultiplicativity():
    for a in SMALL:
        for b in SMALL:
            for p in PLACES:
                assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
    for a in (-2, 3, 5):
        for b in (-1, 2, 7):
            for c in (-3, 5):
                for p in PLACES:
                    assert hilbert_symbol(a * b, c, p) == hilbert_symbol(
                        a, c, p
                    ) * hilbert_symbol(b, c, p)


def test_hilbert_product_formula():
    from arithdt.fields import prime_factors

    for a in SMALL:
        for b in SMALL:
            places = {2} | set(prime_factors(a)) | set(prime_factors(b))
            prod = hilbert_symbol(a, b, "inf")
            for p in sorted(places):
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1, (a, b)


def test_hilbert_symbol_of_fractions_is_that_of_their_square_classes():
    # 1/a = a * (1/a)^2 and a/s^2 share the class of a, including at primes of the denominators
    for a in SMALL:
        for b in SMALL:
            for p in PLACES:
                expected = hilbert_symbol(a, b, p)
                assert hilbert_symbol(Fraction(1, a), b, p) == expected, (a, b, p)
                assert hilbert_symbol(Fraction(a, 36), Fraction(25 * b, 49), p) == expected, (a, b, p)
                assert hilbert_symbol(Fraction(a, 1), Fraction(1, b), p) == expected, (a, b, p)


def test_hilbert_rejects_bad_place():
    with pytest.raises(ArithdtError):
        hilbert_symbol(2, 3, 6)
    with pytest.raises(ArithdtError):
        hilbert_symbol(0, 3, 2)


# -- semantic equality ----------------------------------------------------------------


def test_gw_equal_golden():
    assert (unit(2) + unit(-2)).gw_equal(hyper())
    assert not unit(1, RR).gw_equal(unit(-1, RR))
    assert not (unit(1) + unit(1)).gw_equal(hyper())


def test_gw_equal_is_equivalence_on_samples():
    rng = random.Random(7)
    elements = [
        GwElement(QQ, [(rng.choice((1, -1, 2, -2, 3, 5)), rng.randint(-2, 2)) for _ in range(3)])
        for _ in range(12)
    ]
    for q in elements:
        assert q.gw_equal(q)
    for a in elements:
        for b in elements:
            assert a.gw_equal(b) == b.gw_equal(a)
            if a.gw_equal(b):
                for c in elements:
                    if b.gw_equal(c):
                        assert a.gw_equal(c)


def test_gw_equal_permuted_diagonals():
    entries = [2, -3, 5, Fraction(7, 2), -1]
    rng = random.Random(3)
    for _ in range(10):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert GwElement.from_diagonal(QQ, entries).gw_equal(
            GwElement.from_diagonal(QQ, shuffled)
        )


def test_gw_equal_virtual_differences():
    # group completion: q - q = 0 even with negative multiplicities around
    q = unit(2) - unit(3) * 4
    assert q.gw_equal(q)
    assert (q - q).gw_equal(GwElement.zero(QQ))


def test_gw_equal_distinguishes_by_hasse():
    # <1,1,1,1> vs <1,1,7,7>: same rank, signature, discriminant (1),
    # but different Hasse invariant at 7
    a = GwElement.from_diagonal(QQ, [1, 1, 1, 1])
    b = GwElement.from_diagonal(QQ, [1, 1, 7, 7])
    assert a.rank() == b.rank()
    assert a.signature() == b.signature()
    assert a.discriminant() == b.discriminant()
    assert hasse_invariant([1, 1, 7, 7], 7) == -1
    assert hasse_invariant([1, 1, 1, 1], 7) == 1
    assert not a.gw_equal(b)


def test_gw_equal_over_complex_and_finite():
    assert (unit(2, CC) + unit(3, CC)).gw_equal(hyper(CC))  # rank decides over C
    assert unit(2, F5).gw_equal(unit(3, F5))  # both nonresidues mod 5
    assert not unit(1, F5).gw_equal(unit(2, F5))


# -- ring axioms over every field --------------------------------------------------


def _random_element(rng, field):
    if field.kind == "F":
        reps = (1, 2)
    elif field.kind == "C":
        reps = (1,)
    elif field.kind == "R":
        reps = (1, -1)
    else:
        reps = (1, -1, 2, -2, 3, 5, -6, 7)
    return GwElement(field, [(rng.choice(reps), rng.randint(-3, 3)) for _ in range(3)])


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_ring_axioms(field):
    rng = random.Random(11)
    one = GwElement.one(field)
    zero = GwElement.zero(field)
    for _ in range(60):
        a, b, c = (_random_element(rng, field) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert (a - a).is_zero()


def test_rank_and_signature_are_ring_morphisms():
    rng = random.Random(13)
    for _ in range(60):
        a, b = _random_element(rng, QQ), _random_element(rng, QQ)
        assert (a + b).rank() == a.rank() + b.rank()
        assert (a * b).rank() == a.rank() * b.rank()
        assert (a + b).signature() == a.signature() + b.signature()
        assert (a * b).signature() == a.signature() * b.signature()


# -- diagonalization ------------------------------------------------------------------


def test_diagonalize_golden():
    assert diagonalize_symmetric([[0, 1], [1, 0]]) == hyper()
    assert diagonalize_symmetric([[2, 0], [0, -2]]).gw_equal(hyper())
    assert diagonalize_symmetric([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == unit(1) + hyper()


def test_diagonalize_rejects_singular_and_asymmetric():
    with pytest.raises(SingularMatrixError):
        diagonalize_symmetric([[1, 1], [1, 1]])
    with pytest.raises(ArithdtError):
        diagonalize_symmetric([[0, 1], [2, 0]])
    # an entry whose mirror is zero is not stored on the mirror's row
    for mat in ([[1, 2], [0, 1]], [[1, 0], [2, 1]], [[0, 0, 3], [0, 1, 0], [0, 0, 0]]):
        with pytest.raises(ArithdtError, match="not symmetric"):
            diagonalize_symmetric(mat)
    for mat in ([[1, 0], [0]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ArithdtError, match="not square"):
            diagonalize_symmetric(mat)
    # the dense reader takes ints, Fractions and rational strings; 0, "0" and Fraction(0) are zeros
    for zero in (0, "0", Fraction(0)):
        assert diagonalize_symmetric([[zero, 1], [1, zero]]) == hyper()
        assert diagonalize_symmetric([["1/2", zero], [zero, -2]]) == unit(2) + unit(-2)
        with pytest.raises(SingularMatrixError):
            diagonalize_symmetric([[1, zero], [zero, zero]])
    # anything else, a float included, is refused as bad input, not read inexactly
    for bad in (None, 0.5):
        with pytest.raises(InputDataError):
            diagonalize_symmetric([[1, bad], [bad, 1]])


def _random_unimodular(rng, n):
    mat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            mat[i][k] += c * mat[j][k]
    return mat


def test_diagonalize_congruence_invariance():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.choice((2, 3, 4))
        diag = [rng.choice((-3, -2, -1, 1, 2, 3, 5)) for _ in range(n)]
        m = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        s = _random_unimodular(rng, n)
        congruent = [
            [sum(s[k][i] * m[k][l] * s[l][j] for k in range(n) for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert diagonalize_symmetric(congruent).gw_equal(GwElement.from_diagonal(QQ, diag))


def full_width_diagonalize(mat):
    """Diagonal entries from congruence reduction that updates every row and column.

    The oracle for diagonalize_symmetric, whose elimination touches only the
    rows and columns not yet consumed by a pivot.
    """
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    entries = []
    active = list(range(n))

    def eliminate_rows(targets, pivots, coeffs):
        for k, cs in zip(targets, coeffs):
            for piv, c in zip(pivots, cs):
                if c:
                    for l in range(n):
                        m[k][l] -= c * m[piv][l]
        for k, cs in zip(targets, coeffs):
            for piv, c in zip(pivots, cs):
                if c:
                    for l in range(n):
                        m[l][k] -= c * m[l][piv]

    while active:
        pivot = next((i for i in active if m[i][i] != 0), None)
        if pivot is not None:
            piv = m[pivot][pivot]
            others = [j for j in active if j != pivot]
            eliminate_rows(others, [pivot], [[m[j][pivot] / piv] for j in others])
            entries.append(piv)
            active.remove(pivot)
            continue
        block = next(
            ((i, j) for i in active for j in active if i < j and m[i][j] != 0),
            None,
        )
        if block is None:
            raise SingularMatrixError("matrix is singular")
        i, j = block
        b = m[i][j]
        others = [k for k in active if k not in (i, j)]
        eliminate_rows(others, [i, j], [[m[k][j] / b, m[k][i] / b] for k in others])
        entries.extend([Fraction(1), Fraction(-1)])
        active.remove(i)
        active.remove(j)
    return entries


def _random_symmetric(rng, n, zero_diagonal, singular):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = 0 if (i == j and zero_diagonal) else rng.randint(-3, 3)
    if singular and n >= 2:
        # a repeated row and column make the matrix singular
        i, j = rng.sample(range(n), 2)
        for k in range(n):
            m[j][k] = m[i][k]
        for k in range(n):
            m[k][j] = m[k][i]
    return m


def _diagonal_or_singular(diagonalize, mat):
    try:
        return diagonalize(mat)
    except SingularMatrixError:
        return "singular"


def test_diagonalize_matches_full_width_oracle():
    rng = random.Random(2024)
    outcomes = set()
    for trial in range(90):
        n = rng.randint(1, 12)
        mat = _random_symmetric(rng, n, zero_diagonal=trial % 3 == 1, singular=trial % 3 == 2)
        expected = _diagonal_or_singular(full_width_diagonalize, mat)
        got = _diagonal_or_singular(diagonalize_symmetric, mat)
        if expected == "singular":
            assert got == "singular"
        else:
            assert got == GwElement.from_diagonal(QQ, expected)
        outcomes.add((trial % 3, expected == "singular"))
    # every kind of matrix was drawn, and the singular ones were refused
    assert {(0, False), (1, False), (2, True)} <= outcomes


def dense_diagonalize(mat):
    """Diagonal entries from the dense reduction over the active rows and columns.

    The oracle for diagonalize_symmetric, which makes the same pivots and
    Schur updates over dicts of nonzeros.
    """
    m = [[Fraction(x) for x in row] for row in mat]
    entries = []
    active = list(range(len(m)))
    while active:
        pivot = next((i for i in active if m[i][i] != 0), None)
        if pivot is not None:
            d = m[pivot][pivot]
            terms = [(pivot, pivot)]
            entries.append(d)
            active.remove(pivot)
        else:
            block = next(
                ((i, j) for i in active for j in active if i < j and m[i][j] != 0),
                None,
            )
            if block is None:
                raise SingularMatrixError("matrix is singular")
            i, j = block
            d = m[i][j]
            terms = [(j, i), (i, j)]
            entries.extend([Fraction(1), Fraction(-1)])
            active.remove(i)
            active.remove(j)
        for a, b in terms:
            pivot_row = [(l, m[b][l]) for l in active if m[b][l]]
            for k in active:
                if m[k][a]:
                    c = m[k][a] / d
                    for l, x in pivot_row:
                        m[k][l] -= c * x
    return entries


def _sparse_block(rng, n, zero_diagonal):
    """A symmetric n x n block with about two nonzeros per row."""
    m = [[0] * n for _ in range(n)]
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j or not zero_diagonal:
            m[i][j] = m[j][i] = rng.choice((-3, -2, -1, 1, 2, 5))
    return m


def _graded(rng, sizes):
    """Anti-diagonal blocks: entry (i, j) is zero unless deg i + deg j = top.

    Indices are sorted by degree, as the standard monomials of a graded
    algebra are; the pairing of degree d with top - d is a random block.
    """
    degrees = [d for d, size in enumerate(sizes) for _ in range(size)]
    top = len(sizes) - 1
    n = len(degrees)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if degrees[i] + degrees[j] == top and rng.random() < 0.6:
                m[i][j] = m[j][i] = rng.choice((-2, -1, 1, 1, 3))
    return m


def _congruent_to_diagonal(rng, n):
    """U^T D U for a sparse unit upper-triangular U: the Schur updates cancel U's fill-in."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = sorted(rng.sample(range(n), 2))
        u[i][j] = rng.choice((-1, 1))
    diag = [rng.choice((-2, -1, 1, 3)) for _ in range(n)]
    return [[sum(u[k][i] * diag[k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _cancels_in_first_update(mat):
    """Some nonzero entry becomes zero in the Schur update of the first pivot."""
    d = mat[0][0]
    n = len(mat)
    return d != 0 and any(
        mat[k][l] and mat[k][l] - Fraction(mat[k][0] * mat[0][l], d) == 0
        for k in range(1, n)
        for l in range(1, n)
    )


def _sparse_symmetric(rng, kind):
    if kind == "graded":
        return _graded(rng, [rng.randint(1, 3) for _ in range(rng.randint(2, 6))])
    if kind == "zero-diagonal":
        return _sparse_block(rng, rng.randint(2, 14), zero_diagonal=True)
    if kind == "cancel":
        return _congruent_to_diagonal(rng, rng.randint(3, 10))
    # singular: a zero row and column, or a repeated one, inside a sparse block
    m = _sparse_block(rng, rng.randint(2, 12), zero_diagonal=rng.random() < 0.5)
    i, j = rng.sample(range(len(m)), 2)
    for k in range(len(m)):
        m[j][k] = m[k][j] = m[i][k] if rng.random() < 0.5 else 0
    m[j][j] = m[i][i] if m[j][i] else 0
    return m


SPARSE_KINDS = ("graded", "zero-diagonal", "cancel", "singular")


def test_diagonalize_matches_dense_oracle_on_sparse_matrices():
    rng = random.Random(2031)
    seen = {kind: set() for kind in SPARSE_KINDS}
    for trial in range(160):
        kind = SPARSE_KINDS[trial % len(SPARSE_KINDS)]
        mat = _sparse_symmetric(rng, kind)
        expected = _diagonal_or_singular(dense_diagonalize, mat)
        got = _diagonal_or_singular(diagonalize_symmetric, mat)
        if expected == "singular":
            assert got == "singular"
        else:
            assert got == GwElement.from_diagonal(QQ, expected)
        seen[kind].add(expected == "singular")
        if kind == "cancel" and _cancels_in_first_update(mat):
            seen[kind].add("cancels")
    # each kind was drawn in the form it is meant to test; a nonsingular
    # zero-diagonal matrix starts with a hyperbolic pivot
    assert False in seen["graded"]
    assert False in seen["zero-diagonal"]
    assert {False, "cancels"} <= seen["cancel"]
    assert True in seen["singular"]


# -- trace forms -----------------------------------------------------------------------


def test_trace_form_golden():
    assert trace_form(-1, 1).gw_equal(hyper())
    assert trace_form(-1, 0, 2).gw_equal(hyper())
    assert trace_form(2, 1).gw_equal(unit(2) + unit(1))


def test_trace_form_validation():
    with pytest.raises(ArithdtError):
        trace_form(4, 1)
    with pytest.raises(ArithdtError):
        trace_form(1, 1)
    with pytest.raises(ArithdtError):
        trace_form(-1, 0, 0)


# -- the alpha extension -----------------------------------------------------------------


def test_alpha_squares_to_minus_one():
    alpha = GwAlphaElement.alpha(QQ)
    assert (alpha * alpha) == GwAlphaElement.from_even(unit(-1))
    assert (alpha * GwAlphaElement.zero(QQ)).is_zero()


def test_alpha_difference_of_squares():
    alpha = GwAlphaElement.alpha(QQ)
    one = GwAlphaElement.one(QQ)
    assert (one + alpha) * (one - alpha) == GwAlphaElement.from_even(unit(1) - unit(-1))


def test_alpha_powers():
    for e in range(-9, 10):
        direct = alpha_power(QQ, e)
        alpha = GwAlphaElement.alpha(QQ)
        acc = GwAlphaElement.one(QQ)
        if e >= 0:
            for _ in range(e):
                acc = acc * alpha
        else:
            inv = GwAlphaElement(GwElement.zero(QQ), unit(-1))  # <-1> alpha
            for _ in range(-e):
                acc = acc * inv
        assert direct == acc, e
    assert (alpha_power(QQ, -1) * GwAlphaElement.alpha(QQ)) == GwAlphaElement.one(QQ)


@pytest.mark.parametrize("field", [QQ, RR, CC, finite_field(5), finite_field(7)], ids=str)
def test_alpha_power_is_chi_a1_of_u_power(field):
    for e in range(-9, 10):
        assert alpha_power(field, e) == chi_a1(MotivicClass.u_power(e), field), e


def test_numeric_specializations():
    alpha = GwAlphaElement.alpha(QQ)
    ten_h = GwAlphaElement.from_even(hyper() * 10)
    assert (alpha * ten_h).numeric_complex() == -20
    assert GwAlphaElement.from_even(hyper()).numeric_real() == GaussianInteger(0, 0)
    assert GwAlphaElement.from_even(unit(1)).numeric_complex() == 1
    assert alpha.numeric_real() == GaussianInteger(0, 1)
    with pytest.raises(UnsupportedFieldError):
        GwAlphaElement.alpha(CC).numeric_real()


def test_gaussian_integer_arithmetic():
    i = GaussianInteger(0, 1)
    assert i * i == GaussianInteger(-1, 0)
    assert (GaussianInteger(1, 2) * GaussianInteger(3, -1)) == GaussianInteger(5, 5)
    assert i**4 == GaussianInteger(1, 0)
    assert GaussianInteger.from_json_dict(i.to_json_dict()) == i


# -- rendering and JSON ---------------------------------------------------------------


def test_render():
    assert GwElement.zero(QQ).render() == "0"
    assert (unit(1) * 3 + unit(-1) * 2).render() == "3*<1> + 2*<-1>"
    assert (unit(1) * 3 + unit(-1) * 2).render(contract_h=True) == "2*H + <1>"
    assert (-unit(2)).render() == "-<2>"


def test_json_round_trip():
    q = unit(1) * 3 - unit(6) * 2 + unit(-2)
    assert GwElement.from_json_dict(q.to_json_dict()) == q
    qa = GwAlphaElement(q, hyper())
    assert GwAlphaElement.from_json_dict(qa.to_json_dict()) == qa


# -- gw_equal on multiplicities ---------------------------------------------------------


def naive_hasse(entries, place):
    """Hasse invariant as the product of (a_i, a_j) over all pairs i < j: the oracle."""
    entries = list(entries)
    sym = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            sym *= hilbert_symbol(entries[i], entries[j], place)
    return sym


@pytest.mark.parametrize("place", [2, 3, 5, 7, 11, "inf"])
def test_hasse_invariant_matches_pairwise_product(place):
    rng = random.Random(f"hasse:{place}")
    values = [1, -1, 2, -2, 3, -3, 5, -6, 7, 10, -14, 15, Fraction(1, 2), Fraction(-3, 4), Fraction(7, 5)]
    for _ in range(150):
        entries = [rng.choice(values) for _ in range(rng.randint(0, 9))]
        entries += rng.choices(entries, k=rng.randint(0, 4)) if entries else []
        rng.shuffle(entries)
        assert hasse_invariant(entries, place) == naive_hasse(entries, place), entries


@pytest.mark.parametrize("entries", [[0], [0, 3, 3]])
def test_hasse_invariant_refuses_zero_entries(entries):
    with pytest.raises(ArithdtError):
        hasse_invariant(entries, 3)


def _gw_equal_expanded(a, b):
    """gw_equal over Q through the multiplicity-expanded diagonal entries."""
    pos, neg = forms._split(a - b)
    x, y = ([r for r, m in g.terms for _ in range(m)] for g in (pos, neg))
    if len(x) != len(y) or pos.signature() != neg.signature():
        return False
    if pos.discriminant() != neg.discriminant():
        return False
    places = {2}.union(*(prime_factors(e) for e in x + y))
    return all(naive_hasse(x, p) == naive_hasse(y, p) for p in places)


def _random_terms(rng):
    reps = [1, -1, 2, -2, 3, -3, 5, 6, -7, 10, 14, -15, 21]
    return [(rng.choice(reps), rng.randint(-6, 6)) for _ in range(rng.randint(0, 5))]


def test_gw_equal_matches_expanded_entries():
    rng = random.Random(71)
    verdicts = []
    for _ in range(300):
        a = GwElement(QQ, _random_terms(rng))
        b = GwElement(QQ, _random_terms(rng))
        # same rank and signature, so discriminant and Hasse invariants decide
        dr, ds = a.rank() - b.rank(), a.signature() - b.signature()
        b = b + GwElement(QQ, [(1, (dr + ds) // 2), (-1, (dr - ds) // 2)])
        verdict = a.gw_equal(b)
        assert verdict == _gw_equal_expanded(a, b)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def test_gw_equal_does_not_expand_multiplicities(monkeypatch):
    symbols = []

    def counting_symbol(a, b, place):
        symbols.append(place)
        return hilbert_symbol(a, b, place)

    monkeypatch.setattr(forms, "hilbert_symbol", counting_symbol)
    a, b = GwElement(QQ, [(3, 3000)]), GwElement(QQ, [(1, 3000)])
    c, d = unit(3) + unit(2), unit(1) + unit(6)
    start = time.perf_counter()
    assert a.gw_equal(b)  # 4<3> = 4<1>: 3 is a sum of four squares
    assert (a + c).gw_equal(b + d) == c.gw_equal(d)  # Witt cancellation
    assert time.perf_counter() - start < 1.0
    assert len(symbols) <= 8


def test_gw_equal_factors_each_distinct_rep_once(monkeypatch):
    calls = []

    def counting_factors(n):
        calls.append(n)
        return prime_factors(n)

    monkeypatch.setattr(forms, "prime_factors", counting_factors)
    big = 999961 * 1000033  # a sum of two squares
    a = GwElement(QQ, [(big, 2), (6, 5), (-5, 4)])
    b = GwElement(QQ, [(1, 2), (-30, 4), (7, 2), (6, 3)])  # same rank, signature, discriminant
    assert GwElement(QQ, [(big, 2)]).gw_equal(GwElement(QQ, [(1, 2)]))
    assert sorted(calls) == [1, big]
    calls.clear()
    assert a.gw_equal(b) == _gw_equal_expanded(a, b)
    assert sorted(calls) == sorted([big, 6, -5, 1, -30, 7])
