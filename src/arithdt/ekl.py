"""Local algebraic degrees via residue pairings on local algebras.

For a polynomial map P: A^n -> A^n with an isolated zero at the origin, the
local degree is the Grothendieck-Witt class of the symmetric bilinear form
(p, q) -> phi(p*q) on the quotient algebra A = Q[x]/(P), where phi is any
linear functional taking the value 1 on the distinguished socle element
E = det(J)/dim(A) (characteristic zero lets the Jacobian determinant stand
in for the Bezoutian trace element).  The class does not depend on the
choice of phi.

The Gram matrix G_ij = phi(b_i * b_j) over the standard monomials b_i is
built row by row from the multiplication matrices M_{x_k} of the algebra,
which cost one normal form per product x_k * b_j that is not itself a
standard monomial.  Row 0 is phi (b_0 = 1); every other b_i is x_k * b_p
for an earlier standard monomial b_p, and its row is w_p . M_{x_k}: the sum
of row l of M_{x_k} times w_p[l] over the nonzeros of w_p only.  With the
default phi on a monomial algebra each w_p has one nonzero, so a row costs
O(1) arithmetic.  Each row is kept as a dict of its nonzeros, which the
elimination kernel of ``forms`` consumes directly.  The result keeps phi
alone: ``EklResult.gram`` walks the rows again from the algebra and phi,
and writes them dense, only when it is first read.

A univariate map has a global degree over a whole fiber as well: the class
of the fiber's Euler-Jacobi residue form, whatever the residue fields of the
fiber's points.  Its Hankel Gram matrix is hyperbolic but for the leading
coefficient, so the class is read off in closed form, once the Groebner
kernel has shown the fiber to be reduced.

The gradient version refines the Milnor number of an isolated hypersurface
singularity, and a report-producing checker compares it against the
A^1-Euler characteristic of a user-supplied motivic Milnor fiber.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import (
    ArithdtError,
    DegenerateSystemError,
    InputDataError,
    SingularMatrixError,
    json_int,
    json_rational,
)
from .fields import BaseField, Frozen, QQ, linear_sum, squarefree_part
from .groebner import QuotientAlgebra, buchberger, grevlex_key
from .forms import _diagonalize_rows
from .gw import GwElement, trace_form
from .multipoly import MultiPoly

_ZERO = Fraction(0)  # every zero slot of a dense Gram row; one shared immutable value


class EklResult(Frozen):
    """Residue-pairing class of a map with isolated zero at the origin.

    ``gram`` is the dense Gram matrix, a tuple of row tuples.  ``ekl_class``
    stores phi instead, as its row w_0 {column: nonzero Fraction}, and the
    dense tuple is built by the row walk from the algebra and phi on first
    read: the CLI never reads it.
    """

    __slots__ = ("gw_class", "rank", "_gram", "distinguished_socle", "algebra", "_phi")
    __match_args__ = ("gw_class", "rank", "gram", "distinguished_socle", "algebra")

    def __init__(self, gw_class: GwElement, rank: int, gram: tuple,
                 distinguished_socle: MultiPoly, algebra: QuotientAlgebra) -> None:
        self._assign(gw_class, rank, gram, distinguished_socle, algebra, None)

    @property
    def gram(self) -> tuple:
        if self._phi is not None:
            dense = []
            for w in _gram_walk(self.algebra, self._phi):
                row = [_ZERO] * self.rank
                for j, x in w.items():
                    row[j] = x
                dense.append(tuple(row))
            object.__setattr__(self, "_gram", tuple(dense))
            object.__setattr__(self, "_phi", None)
        return self._gram


def _gram_walk(algebra: QuotientAlgebra, phi: dict) -> list:
    """The Gram rows as fresh dicts of their nonzeros, by the row walk of the
    module docstring from row 0 = phi: w_i = w_p . M_{x_k} for b_i = x_k * b_p."""
    matrix_rows = []
    for columns in algebra.matrices:
        rows = [{} for _ in range(algebra.dimension)]
        for j, column in enumerate(columns):
            for l, c in column.items():
                rows[l][j] = c
        matrix_rows.append(rows)
    gram = [dict(phi)]
    for mono in algebra.standard_monomials[1:]:
        k = next(v for v, e in enumerate(mono) if e)
        parent = gram[algebra.index[mono[:k] + (mono[k] - 1,) + mono[k + 1 :]]]
        rows = matrix_rows[k]
        gram.append(linear_sum((j, x * c) for l, x in parent.items()
                               for j, c in rows[l].items()))
    return gram


class ConjugatePair(Frozen):
    """A conjugate pair of points with coordinates u + v*sqrt(d) in Q(sqrt(d))."""

    __slots__ = __match_args__ = ("d", "coords")

    def __init__(self, d: int, coords: tuple) -> None:
        if json_int(d, "d") in (0, 1) or squarefree_part(d) != d:
            raise ArithdtError("d must be a square-free integer != 1")
        self._assign(d, coords)


def _jacobian_determinant(system) -> MultiPoly:
    """det J by Laplace expansion, each minor worked out once per column set.

    The minor on columns cols uses the last len(cols) rows and is expanded
    along the first of them, so it depends on cols alone: O(n * 2^n)
    products, where the plain expansion makes n!.
    """
    n = len(system)
    variables = system[0].variables
    rows = [[p.partial(j) for j in range(n)] for p in system]

    @cache
    def det(cols):
        r = n - len(cols)
        if len(cols) == 1:
            return rows[r][cols[0]]
        total = MultiPoly.zero(variables)
        for pos, c in enumerate(cols):
            if rows[r][c].is_zero():
                continue
            term = rows[r][c] * det(cols[:pos] + cols[pos + 1 :])
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return det(tuple(range(n)))


def _validate_square_system(system) -> tuple:
    system = list(system)
    if not system:
        raise ArithdtError("empty polynomial system")
    variables = system[0].variables
    for p in system:
        if p.variables != variables:
            raise ArithdtError("system components over different variable lists")
    if len(system) != len(variables):
        raise ArithdtError(
            f"need a square system: {len(system)} polynomials in {len(variables)} variables"
        )
    return variables


def ekl_class(system, field: BaseField = QQ, functional=None) -> EklResult:
    """Local degree class of a square system with isolated zero at the origin.

    ``functional`` optionally fixes phi as coordinates over the standard
    monomial basis; it must satisfy phi(E) = 1.  By default phi is dual to
    the grevlex-highest monomial appearing in E, rescaled.
    """
    _validate_square_system(system)
    algebra = QuotientAlgebra.of_ideal(system)
    dim = algebra.dimension

    det_j = algebra.normal_form(_jacobian_determinant(system))
    if det_j.is_zero():
        raise DegenerateSystemError("Jacobian determinant vanishes in the local algebra")
    socle = det_j * Fraction(1, dim)

    if functional is None:
        lead = max(socle.terms, key=grevlex_key)
        phi = [Fraction(0)] * dim
        phi[algebra.index[lead]] = 1 / socle.terms[lead]
    else:
        phi = [json_rational(x, "functional entry") for x in functional]
        if len(phi) != dim:
            raise ArithdtError("functional has wrong length")
    # the socle is a normal form, so its monomials are standard
    if sum(phi[algebra.index[e]] * c for e, c in socle.terms.items()) != 1:
        raise DegenerateSystemError("normalization phi(E) = 1 is not satisfied")

    w0 = {l: x for l, x in enumerate(phi) if x}
    try:
        gw_class = _diagonalize_rows(_gram_walk(algebra, w0), field)
    except SingularMatrixError as exc:
        raise DegenerateSystemError(f"residue pairing is degenerate: {exc}") from exc
    result = object.__new__(EklResult)
    result._assign(gw_class, dim, None, socle, algebra, w0)
    return result


def local_degree_simple(system, point, field: BaseField = QQ) -> GwElement:
    """<det J> at a simple zero: a rational point or a conjugate quadratic pair."""
    _validate_square_system(system)
    det_j = _jacobian_determinant(system)
    if isinstance(point, ConjugatePair):
        u, v = det_j.evaluate_quadratic(point.coords, point.d)
        if u == 0 and v == 0:
            raise DegenerateSystemError("Jacobian determinant vanishes at the point")
        return trace_form(point.d, u, v).to_field(field)
    value = det_j.evaluate(point)
    if value == 0:
        raise DegenerateSystemError("Jacobian determinant vanishes at the point")
    return GwElement.unit(field, value)


def global_degree_univariate(p: MultiPoly, y, field: BaseField = QQ) -> GwElement:
    """Degree of a univariate polynomial map: the class of the fiber's residue form.

    For f = p - y of degree n with leading coefficient c, the Euler-Jacobi
    residue form on Q[x]/(f) is (a, b) -> sum over the roots t of
    a(t) b(t) / f'(t) (Scheja-Storch).  Its class is the sum over the fiber's
    points of the local degrees <f'(t)>, each transferred from the point's
    residue field (Kass-Wickelgren).  On the basis 1, x, ..., x^(n-1) its Gram
    matrix is the Hankel matrix s_(i+j) of s_k = sum t^k / f'(t), which are 0
    for k < n - 1 and 1/c at k = n - 1.  So the first n // 2 basis vectors
    span a totally isotropic subspace, and the class is (n // 2) H, plus <c>
    when n is odd, whatever y and the lower coefficients are; over any other
    field it is that class read there.

    y must be a regular value: f and f' generate the unit ideal, which the
    reduced Groebner basis of (f, f'), their monic gcd, shows.
    """
    if len(p.variables) != 1:
        raise ArithdtError("global degrees are implemented for univariate maps")
    f = p - MultiPoly.constant(p.variables, json_rational(y, "y"))
    n = f.total_degree()
    if n < 1:
        raise DegenerateSystemError("constant map has no degree")
    if buchberger([f, f.partial(0)])[0].total_degree() > 0:
        raise DegenerateSystemError("fiber has repeated roots; y is not a regular value")
    return GwElement(field, [(1, n // 2), (-1, n // 2), (f.terms[(n,)], n % 2)])


def milnor_number_a1(f: MultiPoly, field: BaseField = QQ) -> EklResult:
    """Residue-pairing refinement of the Milnor number: the class of grad f."""
    grads = f.gradient()
    if all(g.is_zero() for g in grads):
        raise DegenerateSystemError("gradient vanishes identically")
    return ekl_class(grads, field)


class MilnorReport(Frozen):
    """Evidence record comparing the two refinements of the Milnor number.

    lhs is the A^1-Euler characteristic of the supplied motivic Milnor
    fiber; rhs is 1 + (-1)^(n-1) times the gradient class.  Disagreement is
    recorded, not raised: the identity is conjectural beyond the cases the
    supplied resolution data covers.
    """

    __slots__ = __match_args__ = ("function", "lhs", "rhs", "milnor", "agrees", "note")

    def __init__(self, function: MultiPoly, lhs: GwAlphaElement, rhs: GwElement,
                 milnor: EklResult, agrees: bool, note: str) -> None:
        self._assign(function, lhs, rhs, milnor, agrees, note)


def milnor_chi_relation(f: MultiPoly, strata, field: BaseField = QQ, generators=None) -> MilnorReport:
    from .motivic import chi_a1
    from .nearby import SncData, local_nearby_class

    if strata is None:
        raise InputDataError("missing resolution strata data")
    if not isinstance(strata, SncData):
        raise InputDataError("strata must be SncData")
    lhs = chi_a1(local_nearby_class(strata), field, generators)
    milnor = milnor_number_a1(f, field)
    n = len(f.variables)
    sign = 1 if (n - 1) % 2 == 0 else -1
    rhs = GwElement.one(field) + milnor.gw_class * sign
    alpha_free = lhs.odd.is_zero()
    agrees = alpha_free and lhs.even.gw_equal(rhs)
    if not alpha_free:
        note = "nearby class has a half-power part; comparison is outside GW(k)"
    elif agrees:
        note = "both sides agree in GW(k)"
    else:
        note = f"sides differ: chi = {lhs.even.render()} vs 1 + (-1)^(n-1)*mu = {rhs.render()}"
    return MilnorReport(function=f, lhs=lhs, rhs=rhs, milnor=milnor, agrees=agrees, note=note)
