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
kernel of ``elimination`` consumes directly.  The result keeps phi
alone: ``EklResult.gram`` walks the rows again from the algebra and phi,
and writes them dense, only when it is first read.

The degrees that no ``ekl`` job computes -- at a simple zero, over a whole
fiber of a univariate map, and the refined Milnor number with its check
against a motivic Milnor fiber -- live in ``degrees``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .elimination import _diagonalize_rows
from .errors import ArithdtError, DegenerateSystemError, SingularMatrixError, json_rational
from .fields import BaseField, Frozen, QQ, linear_sum
from .groebner import QuotientAlgebra, grevlex_key
from .gw import GwElement
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
