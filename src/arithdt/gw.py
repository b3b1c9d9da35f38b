"""Grothendieck-Witt ring arithmetic over the supported base fields.

A GwElement is a finite integer combination of rank-one forms <a> with a in
canonical square-class form.  Multiplicities may be negative: the ring is a
group completion, so elements are virtual differences of genuine quadratic
forms.  Canonical form is set once, by the public constructor; ring
operations sum their terms with the shared sparse sum ``fields.linear_sum``
and build their results from canonical reps through the trusted
``GwElement._make``, which factors nothing.  Structural equality (`==`)
compares canonical term lists; semantic equality (`gw_equal`) decides whether
two virtual forms define the same class, by the complete invariants of the
field.

Square classes and their canonical reps come from ``squares``.  The
elimination kernel behind ``diagonalize_symmetric`` lives in
``elimination``, and the classification of forms (the Hilbert symbols and
Hasse invariants, and the decision behind ``gw_equal``) in ``forms``; each
is imported when its caller is called, so a job that only adds and
multiplies classes compiles neither.  GW(k)(alpha),
the ring of GwAlphaElement with alpha a formal square root of <-1>, lives in
``gwalpha``, and the Gaussian integers it maps to in ``gaussian``, so a job
in GW(k) alone does not compile them (``JOBS``, tests/test_package.py).
"""

from __future__ import annotations

from math import gcd

from .errors import ArithdtError, FieldMismatchError, UnsupportedFieldError, json_int, json_rational
from .fields import BaseField, CoefficientRing, QQ, Value, linear_sum, render_sum, squarefree_part
from .squares import SquareClass, square_class_rep


def _sorted_terms(pairs) -> tuple:
    """(rep, mult) pairs with distinct reps and nonzero mults, in canonical order."""
    return tuple(sorted(pairs, key=lambda t: (abs(t[0]), t[0] < 0)))


def _mul_reps(field: BaseField, a: int, b: int) -> int:
    """Product of two canonical square-class representatives, canonical again."""
    if field.kind == BaseField.RATIONALS:
        # both square-free: strip the shared part, the rest is square-free
        g = gcd(abs(a), abs(b))
        return (a // g) * (b // g)
    if field.kind == BaseField.REALS:
        return a * b
    if field.kind == BaseField.COMPLEXES:
        return 1
    return square_class_rep(field, a * b)


class GwElement(Value):
    """An element of GW(k): a formal Z-combination of square classes <a>."""

    __slots__ = __match_args__ = ("field", "terms")

    def __init__(self, field: BaseField, terms=()):
        if hasattr(terms, "items"):
            terms = terms.items()
        # each multiplicity is read before its rep, and the rep of a zero one is never read
        mults = ((rep, json_int(mult, "multiplicity")) for rep, mult in terms)
        canonical = linear_sum((square_class_rep(field, rep), mult) for rep, mult in mults if mult)
        self.field = field
        self.terms = _sorted_terms(canonical.items())

    @classmethod
    def _make(cls, field: BaseField, pairs) -> "GwElement":
        """Trusted constructor: nonzero int multiplicities on distinct canonical reps."""
        obj = object.__new__(cls)
        obj.field = field
        obj.terms = _sorted_terms(pairs)
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: BaseField = QQ) -> "GwElement":
        return cls(field)

    @classmethod
    def unit(cls, field: BaseField, a) -> "GwElement":
        """The rank-one form <a>."""
        return cls(field, [(a, 1)])

    @classmethod
    def one(cls, field: BaseField = QQ) -> "GwElement":
        return cls.unit(field, 1)

    @classmethod
    def hyperbolic(cls, field: BaseField = QQ) -> "GwElement":
        """H = <1> + <-1>."""
        return cls(field, [(1, 1), (-1, 1)])

    @classmethod
    def from_diagonal(cls, field: BaseField, entries) -> "GwElement":
        """Sum of <a> over the (nonzero) diagonal entries a."""
        return cls(field, [(a, 1) for a in entries])

    # -- ring structure ----------------------------------------------------

    def _check_field(self, other: "GwElement") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"mixed base fields {self.field} and {other.field}")

    def __add__(self, other: "GwElement") -> "GwElement":
        if not isinstance(other, GwElement):
            return NotImplemented
        self._check_field(other)
        return GwElement._make(self.field, linear_sum(self.terms + other.terms).items())

    def __sub__(self, other: "GwElement") -> "GwElement":
        return self + (-other)

    def __neg__(self) -> "GwElement":
        return GwElement._make(self.field, [(r, -m) for r, m in self.terms])

    def __mul__(self, other):
        if isinstance(other, int):
            # the one product that can make a zero multiplicity
            scaled = [(r, m * other) for r, m in self.terms] if other else ()
            return GwElement._make(self.field, scaled)
        if not isinstance(other, GwElement):
            return NotImplemented
        self._check_field(other)
        # a list, not a generator: linear_sum walks it faster on small operands
        products = [
            (_mul_reps(self.field, r1, r2), m1 * m2) for r1, m1 in self.terms for r2, m2 in other.terms
        ]
        return GwElement._make(self.field, linear_sum(products).items())

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    # -- invariants ----------------------------------------------------------

    def rank(self) -> int:
        return sum(m for _, m in self.terms)

    def signature(self) -> int:
        if not self.field.is_ordered:
            raise UnsupportedFieldError(f"signature is undefined over {self.field}")
        return sum(m if r > 0 else -m for r, m in self.terms)

    def discriminant(self) -> SquareClass:
        """Square class of the product of diagonal entries with multiplicity.

        Only defined on genuine forms (nonnegative multiplicities); a virtual
        difference has no diagonal representative to read the product from.
        """
        if any(m < 0 for _, m in self.terms):
            raise ArithdtError("discriminant requires a diagonal representative "
                               "(all multiplicities nonnegative)")
        rep = 1
        for r, m in self.terms:
            if m % 2:
                rep = _mul_reps(self.field, rep, r)
        return SquareClass._make(self.field, rep)

    def gw_equal(self, other: "GwElement") -> bool:
        """Whether self and other are the same class in GW(k): ``forms.gw_equal``."""
        from .forms import gw_equal

        return gw_equal(self, other)

    def to_field(self, field: BaseField) -> "GwElement":
        """Reinterpret the same diagonal entries over another base field.

        Only meaningful when every representative is a unit there (always
        true from Q to R or C; may fail into F_p).
        """
        if field == self.field:
            return self
        return GwElement(field, [(r, m) for r, m in self.terms])

    # -- rendering and JSON --------------------------------------------------

    def render(self, contract_h: bool = False) -> str:
        terms = dict(self.terms)
        pieces: list[tuple[str, int]] = []
        m_pos, m_neg = terms.get(1, 0), terms.get(-1, 0)
        if contract_h and m_pos * m_neg > 0:
            # h copies of H = <1> + <-1>, h the same-signed multiplicity nearer zero
            h = min(m_pos, m_neg, key=abs)
            terms = linear_sum([*self.terms, (1, -h), (-1, -h)])
            pieces.append(("H", h))
        pieces += [(f"<{r}>", m) for r, m in terms.items()]
        return render_sum(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"GwElement({self.field}; {self.render()})"

    def to_json_dict(self) -> dict:
        return {"field": self.field.label(), "terms": [[r, m] for r, m in self.terms]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GwElement":
        from .fields import parse_field_label

        field = parse_field_label(data["field"])
        return cls(field, data["terms"])


def gw_ring(field: BaseField = QQ) -> CoefficientRing:
    """The series adapter of GW(field)."""
    return CoefficientRing(f"GW({field})", GwElement.zero(field), GwElement.one(field))


def diagonalize_symmetric(mat, field: BaseField = QQ) -> GwElement:
    """GW class of a nondegenerate symmetric rational matrix.

    Each entry is read with ``json_rational``, so ints, Fractions and strings
    such as "1/2" are accepted and floats are refused.  The nonzeros of each
    row go to ``elimination._diagonalize_rows``, the one elimination kernel, as a dict.
    """
    from .elimination import _diagonalize_rows

    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ArithdtError("matrix is not square")
    rows = [
        {j: value for j, value in enumerate(json_rational(x, "matrix entry") for x in row) if value}
        for row in mat
    ]
    return _diagonalize_rows(rows, field)


def trace_form(d: int, u, v=0) -> GwElement:
    """Transfer of <beta> from Q(sqrt(d)) to Q, for beta = u + v*sqrt(d).

    The Gram matrix of x -> Tr(beta * x^2) on the basis (1, sqrt(d)) is
    [[2u, 2dv], [2dv, 2du]]; the result is its diagonalization in GW(Q).
    """
    d = json_int(d, "d")
    if d in (0, 1) or squarefree_part(d) != d:
        raise ArithdtError(f"d must be a square-free integer != 1, got {d}")
    u = json_rational(u, "u")
    v = json_rational(v, "v")
    if u == 0 and v == 0:
        raise ArithdtError("beta must be nonzero")
    gram = [[2 * u, 2 * d * v], [2 * d * v, 2 * d * u]]
    return diagonalize_symmetric(gram, QQ)
