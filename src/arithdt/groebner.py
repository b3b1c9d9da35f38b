"""Groebner bases over Q in graded reverse lexicographic order.

Buchberger's algorithm with normal selection (pairs by smallest lcm
degree), full normal forms, and inter-reduction to the unique reduced monic
basis.  Two criteria skip S-pairs that need no reduction: pairs with coprime
leading monomials are never queued, and a pair (i, j) is dropped when some
lm_k divides lcm(lm_i, lm_j) and the pairs (i, k), (j, k) are already done
(Buchberger's chain criterion; Cox-Little-O'Shea, ch. 2 sec. 10).  The
grevlex order is fixed package-wide: the degree decides first, ties break
on the rightmost nonzero exponent difference being negative.

QuotientAlgebra presents A = Q[x]/(ideal) for zero-dimensional ideals whose
only zero over the algebraic closure is the origin; that locality condition
is what the downstream local-degree constructions need, and it is checked
by requiring every variable to be nilpotent in A.  Its basis is the
standard monomials, a finite down-set (Macaulay; Cox-Little-O'Shea, ch. 5
sec. 3) walked up from 1 in at most n * dim tests.  The algebra builds the
matrices of multiplication by each variable once; every product in A is a
walk through them.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush

from .errors import (
    ArithdtError,
    NotSupportedAtOriginError,
    PositiveDimensionalIdealError,
)
from .fields import linear_sum
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


def normal_form(p: MultiPoly, basis, lms) -> MultiPoly:
    """Full remainder of p on division by the basis, whose leading monomials are lms."""
    variables = p.variables
    remainder: dict[tuple, Fraction] = {}
    work = dict(p.terms)
    while work:
        mono = max(work, key=grevlex_key)
        coeff = work.pop(mono)
        if not coeff:
            continue
        for lm, g in zip(lms, basis):
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


def _s_polynomial(f: MultiPoly, g: MultiPoly, lf: tuple, lg: tuple) -> MultiPoly:
    """S-polynomial of f and g, whose leading monomials are lf and lg."""
    lcm = _mono_lcm(lf, lg)
    mf = MultiPoly._make(f.variables, {_mono_div(lcm, lf): 1 / f.terms[lf]})
    mg = MultiPoly._make(g.variables, {_mono_div(lcm, lg): 1 / g.terms[lg]})
    return mf * f - mg * g


def _monic(p: MultiPoly) -> MultiPoly:
    lc = p.terms[leading_monomial(p)]
    return p * (1 / lc)


def _interreduce(basis, lms) -> list[MultiPoly]:
    """The reduced basis of a monic Groebner basis with leading monomials lms."""
    # keep the generators whose leading monomial no other one divides (the first of equal ones)
    kept = sorted(
        (
            (lm, p)
            for i, (lm, p) in enumerate(zip(lms, basis))
            if not any(
                j != i and _divides(m, lm) and (m != lm or j < i) for j, m in enumerate(lms)
            )
        ),
        key=lambda t: grevlex_key(t[0]),
    )
    polys, lms = [p for _, p in kept], [lm for lm, _ in kept]
    if len(polys) == 1:
        return polys
    # no other leading monomial divides a survivor's, so its leading term stays and it stays monic
    return [
        normal_form(p, polys[:i] + polys[i + 1 :], lms[:i] + lms[i + 1 :]) for i, p in enumerate(polys)
    ]


def buchberger(generators) -> list[MultiPoly]:
    """Reduced grevlex Groebner basis of the ideal the generators span."""
    basis = [_monic(g) for g in generators if not g.is_zero()]
    lms = [leading_monomial(g) for g in basis]
    pairs: list[tuple] = []  # heap of (lcm degree, i, j): normal selection
    pending: set[tuple] = set()  # the (i, j), i > j, still on the heap

    def add_pairs(i):
        for j in range(i):
            lcm = _mono_lcm(lms[i], lms[j])
            if lcm != _mono_mul(lms[i], lms[j]):  # coprime leading monomials reduce to zero
                heappush(pairs, (sum(lcm), i, j))
                pending.add((i, j))

    def chain(i, j):
        """Some lm_k divides lcm(lm_i, lm_j), and the pairs (i, k), (j, k) are done."""
        lcm = _mono_lcm(lms[i], lms[j])
        return any(
            k != i and k != j
            and _divides(lm, lcm)
            and (max(i, k), min(i, k)) not in pending
            and (max(j, k), min(j, k)) not in pending
            for k, lm in enumerate(lms)
        )

    for i in range(len(basis)):
        add_pairs(i)
    while pairs:
        _, i, j = heappop(pairs)
        pending.remove((i, j))
        if chain(i, j):
            continue
        r = normal_form(_s_polynomial(basis[i], basis[j], lms[i], lms[j]), basis, lms)
        if r.is_zero():
            continue
        basis.append(_monic(r))
        lms.append(leading_monomial(basis[-1]))
        add_pairs(len(basis) - 1)
    return _interreduce(basis, lms)


class QuotientAlgebra:
    """A finite-dimensional quotient Q[x]/(P), supported only at the origin.

    Carries the reduced Groebner basis and its leading monomials (worked out
    once, by ``of_ideal``), the ascending-grevlex standard monomial basis
    b_0 = 1, b_1, ... (walked up from 1: each b is raised only in the
    variables at or after its last nonzero exponent, so n * dim candidates
    at most), its position index, and the sparse matrices M_{x_k} of
    multiplication by each variable, built once here.
    Entry ``matrices[k][j]`` is column j of M_{x_k}: the coordinate dict of
    x_k * b_j.  A product that is itself a standard monomial is read off the
    index; only the others need a normal form.  Every other product in A is
    a walk through these matrices.
    """

    __slots__ = ("variables", "groebner", "leading_monomials", "standard_monomials", "dimension",
                 "index", "matrices")

    def __init__(self, variables, groebner, leading_monomials, standard_monomials):
        self.variables = tuple(variables)
        self.groebner = tuple(groebner)
        self.leading_monomials = tuple(leading_monomials)
        self.standard_monomials = tuple(standard_monomials)
        self.dimension = len(self.standard_monomials)
        self.index = {m: i for i, m in enumerate(self.standard_monomials)}
        self.matrices = []
        for k in range(len(self.variables)):
            columns = []
            for mono in self.standard_monomials:
                shifted = tuple(e + (v == k) for v, e in enumerate(mono))
                pos = self.index.get(shifted)
                if pos is not None:
                    columns.append({pos: Fraction(1)})
                else:
                    monomial = MultiPoly._make(self.variables, {shifted: Fraction(1)})
                    columns.append(self._sparse_coordinates(monomial))
            self.matrices.append(columns)

    @classmethod
    def of_ideal(cls, generators) -> "QuotientAlgebra":
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
        for i, name in enumerate(variables):
            if not any(lm[i] and sum(lm) == lm[i] for lm in lms):
                raise PositiveDimensionalIdealError(
                    f"no pure power of {name} among leading monomials: quotient is infinite-dimensional"
                )
        walk = [((0,) * n, 0)]  # (monomial, its last raised variable): each has one parent
        for mono, last in walk:  # grows as the walk goes
            for k in range(last, n):
                raised = mono[:k] + (mono[k] + 1,) + mono[k + 1 :]
                if not any(_divides(lm, raised) for lm in lms):
                    walk.append((raised, k))
        monomials = sorted((mono for mono, _ in walk), key=grevlex_key)
        algebra = cls(variables, basis, lms, monomials)
        for i in range(n):
            # coordinates of x_i^dim, from those of b_0 = 1, stopping at the first zero power
            power = {0: Fraction(1)}
            for _ in range(algebra.dimension):
                if not (power := algebra._times(i, power)):
                    break
            if power:
                raise NotSupportedAtOriginError(
                    f"{variables[i]} is not nilpotent in the quotient: "
                    "zero set is not concentrated at the origin"
                )
        return algebra

    def normal_form(self, p: MultiPoly) -> MultiPoly:
        return normal_form(p, self.groebner, self.leading_monomials)

    def _sparse_coordinates(self, p: MultiPoly) -> dict:
        """Nonzero coordinates {basis index: coefficient} of the normal form of p."""
        coords = {}
        for e, c in self.normal_form(p).terms.items():
            k = self.index.get(e)
            if k is None:
                raise ArithdtError("normal form left the standard monomial span")
            coords[k] = c
        return dict(sorted(coords.items()))

    def _times(self, k: int, coords: dict) -> dict:
        """Nonzero coordinates of x_k * v, for v given by its nonzero coordinates."""
        columns = self.matrices[k]
        return linear_sum((l, c * d) for j, c in coords.items() for l, d in columns[j].items())

    def basis_product(self, i: int, j: int) -> dict:
        """Coordinates {k: c} of b_i * b_j: b_j multiplied by each variable of b_i in turn."""
        coords = {j: Fraction(1)}
        for k, e in enumerate(self.standard_monomials[i]):
            for _ in range(e):
                coords = self._times(k, coords)
        return dict(sorted(coords.items()))

    def __repr__(self) -> str:
        basis = ", ".join(g.render() for g in self.groebner)
        return f"QuotientAlgebra(dim {self.dimension}; basis [{basis}])"
