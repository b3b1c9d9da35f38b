"""Local and global degrees that no ``ekl`` job computes.

``local_degree_simple`` is <det J> at a simple zero, a rational point or a
conjugate pair of points over Q(sqrt(d)).  A univariate map has a global
degree over a whole fiber as well: the class of the fiber's Euler-Jacobi
residue form, whatever the residue fields of the fiber's points.  Its Hankel
Gram matrix is hyperbolic but for the leading coefficient, so the class is
read off in closed form, once the Groebner kernel has shown the fiber to be
reduced.

The gradient version of ``ekl_class`` refines the Milnor number of an
isolated hypersurface singularity, and a report-producing checker compares
it against the A^1-Euler characteristic of a user-supplied motivic Milnor
fiber.
"""

from __future__ import annotations

from .ekl import EklResult, _jacobian_determinant, _validate_square_system, ekl_class
from .errors import ArithdtError, DegenerateSystemError, InputDataError, json_int, json_rational
from .fields import BaseField, Frozen, QQ, squarefree_part
from .groebner import buchberger
from .gw import GwElement, trace_form
from .multipoly import MultiPoly, _sequence, _uv_pair


class ConjugatePair(Frozen):
    """A conjugate pair of points with coordinates u + v*sqrt(d) in Q(sqrt(d))."""

    __slots__ = __match_args__ = ("d", "coords")

    def __init__(self, d: int, coords: tuple) -> None:
        if json_int(d, "d") in (0, 1) or squarefree_part(d) != d:
            raise ArithdtError("d must be a square-free integer != 1")
        for coord in _sequence(coords, "coords"):
            _uv_pair(coord)
        self._assign(d, coords)


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
