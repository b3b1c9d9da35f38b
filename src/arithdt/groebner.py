"""Groebner bases over Q in graded reverse lexicographic order.

Plain Buchberger with the coprime-leading-monomial criterion, full normal
forms, and inter-reduction to the unique reduced monic basis.  The grevlex
order is fixed package-wide: the degree decides first, ties break on the
rightmost nonzero exponent difference being negative.

QuotientAlgebra presents A = Q[x]/(ideal) for zero-dimensional ideals whose
only zero over the algebraic closure is the origin; that locality condition
is what the downstream local-degree constructions need, and it is checked
by requiring every variable to be nilpotent in A.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import (
    ArithdtError,
    NotSupportedAtOriginError,
    PositiveDimensionalIdealError,
)
from .multipoly import MultiPoly


def grevlex_key(exps) -> tuple:
    return (sum(exps), tuple(-e for e in reversed(exps)))


def leading_monomial(p: MultiPoly) -> tuple:
    if p.is_zero():
        raise ArithdtError("zero polynomial has no leading monomial")
    return max(p.terms, key=grevlex_key)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_mul(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def normal_form(p: MultiPoly, basis) -> MultiPoly:
    """Full remainder of p on division by the basis (every term reduced)."""
    variables = p.variables
    remainder: dict[tuple, Fraction] = {}
    work = dict(p.terms)
    lms = [(leading_monomial(g), g) for g in basis if not g.is_zero()]
    while work:
        mono = max(work, key=grevlex_key)
        coeff = work.pop(mono)
        if not coeff:
            continue
        for lm, g in lms:
            if _divides(lm, mono):
                shift = _mono_div(mono, lm)
                factor = coeff / g.terms[lm]
                for e, c in g.terms.items():
                    key = _mono_mul(e, shift)
                    if key == mono:
                        continue
                    work[key] = work.get(key, Fraction(0)) - factor * c
                    if not work[key]:
                        del work[key]
                break
        else:
            remainder[mono] = remainder.get(mono, Fraction(0)) + coeff
    return MultiPoly._make(variables, remainder)


def _s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    lf, lg = leading_monomial(f), leading_monomial(g)
    lcm = _mono_lcm(lf, lg)
    mf = MultiPoly._make(f.variables, {_mono_div(lcm, lf): 1 / f.terms[lf]})
    mg = MultiPoly._make(g.variables, {_mono_div(lcm, lg): 1 / g.terms[lg]})
    return mf * f - mg * g


def _monic(p: MultiPoly) -> MultiPoly:
    lc = p.terms[leading_monomial(p)]
    return p * (1 / lc)


def _interreduce(polys) -> list[MultiPoly]:
    polys = [_monic(p) for p in polys if not p.is_zero()]
    # drop generators whose leading monomial another one divides
    kept = []
    for i, p in enumerate(polys):
        lm = leading_monomial(p)
        if any(
            j != i and _divides(leading_monomial(q), lm)
            and not (leading_monomial(q) == lm and j > i)
            for j, q in enumerate(polys)
        ):
            continue
        kept.append(p)
    # fully reduce each survivor against the others
    out = []
    for i, p in enumerate(kept):
        rest = kept[:i] + kept[i + 1 :]
        r = normal_form(p, rest) if rest else p
        if not r.is_zero():
            out.append(_monic(r))
    out.sort(key=lambda q: grevlex_key(leading_monomial(q)))
    return out


def buchberger(generators) -> list[MultiPoly]:
    """Reduced grevlex Groebner basis of the ideal the generators span."""
    basis = [_monic(g) for g in generators if not g.is_zero()]
    if not basis:
        return []
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        # normal selection: smallest lcm degree first
        pairs.sort(key=lambda ij: sum(_mono_lcm(
            leading_monomial(basis[ij[0]]), leading_monomial(basis[ij[1]])
        )), reverse=True)
        i, j = pairs.pop()
        lf, lg = leading_monomial(basis[i]), leading_monomial(basis[j])
        if _mono_lcm(lf, lg) == _mono_mul(lf, lg):
            continue  # coprime leading monomials reduce to zero
        r = normal_form(_s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        basis.append(_monic(r))
        pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    return _interreduce(basis)


class QuotientAlgebra:
    """A finite-dimensional quotient Q[x]/(P), supported only at the origin.

    Carries the reduced Groebner basis, the ascending-grevlex standard
    monomial basis and its position index.  Multiplication is computed on
    demand: per basis pair by ``basis_product``, per variable by
    ``multiplication_matrices``.
    """

    __slots__ = ("variables", "groebner", "standard_monomials", "dimension", "index")

    def __init__(self, variables, groebner, standard_monomials):
        self.variables = tuple(variables)
        self.groebner = tuple(groebner)
        self.standard_monomials = tuple(standard_monomials)
        self.dimension = len(self.standard_monomials)
        self.index = {m: i for i, m in enumerate(self.standard_monomials)}

    @classmethod
    def of_ideal(cls, generators, require_origin: bool = True) -> "QuotientAlgebra":
        generators = list(generators)
        if not generators:
            raise PositiveDimensionalIdealError("empty generating set")
        variables = generators[0].variables
        for g in generators:
            if g.variables != variables:
                raise ArithdtError("generators over different variable lists")
        basis = buchberger(generators)
        if any(p.total_degree() == 0 for p in basis):
            # ideal is the unit ideal: empty zero locus
            raise NotSupportedAtOriginError("ideal is the unit ideal; empty zero set")
        n = len(variables)
        lms = [leading_monomial(g) for g in basis]
        bounds = []
        for i in range(n):
            pure = [
                lm[i]
                for lm in lms
                if lm[i] > 0 and all(lm[j] == 0 for j in range(n) if j != i)
            ]
            if not pure:
                raise PositiveDimensionalIdealError(
                    f"no pure power of {variables[i]} among leading monomials: "
                    "quotient is infinite-dimensional"
                )
            bounds.append(min(pure))
        monomials = [
            exps
            for exps in product(*(range(b) for b in bounds))
            if not any(_divides(lm, exps) for lm in lms)
        ]
        monomials.sort(key=grevlex_key)
        algebra = cls(variables, basis, monomials)
        if require_origin:
            for i in range(n):
                power = tuple(
                    algebra.dimension if j == i else 0 for j in range(n)
                )
                nf = algebra.normal_form(MultiPoly(variables, {power: 1}))
                if not nf.is_zero():
                    raise NotSupportedAtOriginError(
                        f"{variables[i]} is not nilpotent in the quotient: "
                        "zero set is not concentrated at the origin"
                    )
        return algebra

    def normal_form(self, p: MultiPoly) -> MultiPoly:
        return normal_form(p, self.groebner)

    def _sparse_coordinates(self, p: MultiPoly) -> dict:
        """Nonzero coordinates {basis index: coefficient} of the normal form of p."""
        coords = {}
        for e, c in self.normal_form(p).terms.items():
            k = self.index.get(e)
            if k is None:
                raise ArithdtError("normal form left the standard monomial span")
            coords[k] = c
        return dict(sorted(coords.items()))

    def coordinates(self, p: MultiPoly) -> list[Fraction]:
        """Coordinates of the normal form in the standard monomial basis."""
        coords = [Fraction(0)] * self.dimension
        for k, c in self._sparse_coordinates(p).items():
            coords[k] = c
        return coords

    def basis_product(self, i: int, j: int) -> dict:
        """Normal form of the product of basis monomials i and j, as a coordinate dict."""
        mono = _mono_mul(self.standard_monomials[i], self.standard_monomials[j])
        return self._sparse_coordinates(self.monomial_poly(mono))

    def multiplication_table(self) -> dict:
        """Full structure-constant table {(i, j): {k: c}} for i <= j."""
        return {
            (i, j): self.basis_product(i, j)
            for i in range(self.dimension)
            for j in range(i, self.dimension)
        }

    def multiplication_matrices(self) -> list[list[dict]]:
        """Sparse matrices of multiplication by each variable.

        Entry ``[k][j]`` is column j of M_{x_k}: the coordinate dict of
        x_k * b_j.  A product that is itself a standard monomial is read off
        the index; only the others need a normal form.
        """
        matrices = []
        for k in range(len(self.variables)):
            columns = []
            for mono in self.standard_monomials:
                shifted = tuple(e + (v == k) for v, e in enumerate(mono))
                pos = self.index.get(shifted)
                if pos is not None:
                    columns.append({pos: Fraction(1)})
                else:
                    columns.append(self._sparse_coordinates(self.monomial_poly(shifted)))
            matrices.append(columns)
        return matrices

    def monomial_poly(self, exps) -> MultiPoly:
        return MultiPoly(self.variables, {tuple(exps): 1})

    def __repr__(self) -> str:
        basis = ", ".join(g.render() for g in self.groebner)
        return f"QuotientAlgebra(dim {self.dimension}; basis [{basis}])"
