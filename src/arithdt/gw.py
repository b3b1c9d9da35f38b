"""Grothendieck-Witt ring arithmetic over the supported base fields.

A GwElement is a finite integer combination of rank-one forms <a> with a in
canonical square-class form.  Multiplicities may be negative: the ring is a
group completion, so elements are virtual differences of genuine quadratic
forms.  Canonical form is set once, by the public constructor; ring
operations sum their terms with the shared sparse sum ``fields.linear_sum``
and build their results from canonical reps through the trusted
``GwElement._make``, which factors nothing.  Structural equality (`==`)
compares canonical term lists; semantic equality (`gw_equal`) decides whether
two virtual forms define the same class, using the complete system of
invariants of each field:

* C: rank;
* R: rank and signature;
* F_p: rank and discriminant;
* Q: rank, signature, discriminant and Hasse invariants at 2 and at every
  prime dividing a diagonal entry (the local symbol is +1 elsewhere).

GW(k)(alpha), the ring of GwAlphaElement with alpha a formal square root of
<-1>, lives in ``gwalpha``, and the Gaussian integers it maps to in
``gaussian``, so a job in GW(k) alone does not compile them.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    ArithdtError,
    FieldMismatchError,
    SingularMatrixError,
    UnsupportedFieldError,
    json_int,
    json_rational,
)
from .fields import (
    BaseField,
    CoefficientRing,
    QQ,
    SquareClass,
    Value,
    is_prime,
    legendre_symbol,
    linear_sum,
    prime_factors,
    render_sum,
    square_class_rep,
    squarefree_part,
)

INFINITE_PLACE = "inf"


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

    def _split(self) -> tuple["GwElement", "GwElement"]:
        pos = GwElement._make(self.field, [(r, m) for r, m in self.terms if m > 0])
        neg = GwElement._make(self.field, [(r, -m) for r, m in self.terms if m < 0])
        return pos, neg

    def gw_equal(self, other: "GwElement") -> bool:
        """Whether self and other are the same class in GW(k).

        Decided on the difference self - other, split into two genuine forms
        whose complete invariants are compared (Witt cancellation makes this
        sound for the group completion).
        """
        if not isinstance(other, GwElement):
            raise ArithdtError("gw_equal compares GwElements")
        self._check_field(other)
        pos, neg = (self - other)._split()
        if pos.rank() != neg.rank():
            return False
        kind = self.field.kind
        if kind == BaseField.COMPLEXES:
            return True
        if kind == BaseField.REALS:
            return pos.signature() == neg.signature()
        if kind == BaseField.FINITE:
            return pos.discriminant() == neg.discriminant()
        if pos.signature() != neg.signature():
            return False
        if pos.discriminant() != neg.discriminant():
            return False
        places = {2}
        for rep, _ in pos.terms + neg.terms:
            places.update(prime_factors(rep))
        return all(_hasse_of_terms(pos.terms, p) == _hasse_of_terms(neg.terms, p)
                   for p in sorted(places))

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


# -- local symbols and form classification ----------------------------------


def _p_adic_split(x: Fraction, p: int) -> tuple[int, int]:
    """(v_p(x), u) for x != 0: u = num * den with p divided out, a unit in the class of x / p^v."""
    u, v = x.numerator * x.denominator, 0
    while u % p == 0:
        u //= p
        v += 1
    return (-v if x.denominator % p == 0 else v), u


def hilbert_symbol(a, b, place) -> int:
    """The local Hilbert symbol (a, b) at a finite prime or at infinity."""
    a = json_rational(a, "a")
    b = json_rational(b, "b")
    if a == 0 or b == 0:
        raise ArithdtError("Hilbert symbols require nonzero arguments")
    if place == INFINITE_PLACE:
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(place, int) or not is_prime(place):
        raise ArithdtError(f"place must be a prime or {INFINITE_PLACE!r}, got {place!r}")
    p = place
    va, ua = _p_adic_split(a, p)
    vb, ub = _p_adic_split(b, p)
    if p == 2:
        ua, ub = ua % 8, ub % 8
        eps_a, eps_b = (ua - 1) // 2 % 2, (ub - 1) // 2 % 2
        om_a, om_b = (ua * ua - 1) // 8 % 2, (ub * ub - 1) // 8 % 2
        exponent = eps_a * eps_b + va * om_b + vb * om_a
        return -1 if exponent % 2 else 1
    sym = legendre_symbol(-1, p) if va * vb % 2 else 1
    sym *= legendre_symbol(ua, p) if vb % 2 else 1
    return sym * (legendre_symbol(ub, p) if va % 2 else 1)


def hasse_invariant(entries, place) -> int:
    """Hasse invariant of the diagonal form <a_1,...,a_n> at one place, equal entries grouped."""
    terms = linear_sum((json_rational(a, "diagonal entry"), 1) for a in entries)
    if 0 in terms:
        raise ArithdtError("Hilbert symbols require nonzero arguments")
    return _hasse_of_terms(tuple(terms.items()), place)


def _hasse_of_terms(terms, place) -> int:
    """Hasse invariant of the genuine form sum m_r <r>, multiplicities unexpanded.

    Of the pairs of diagonal entries, C(m_r, 2) are (r, r) and m_r * m_s are
    (r, s), so the invariant is prod_r (r,r)^C(m_r,2) * prod_{r<s} (r,s)^(m_r m_s).
    """
    sym = 1
    for i, (r, m) in enumerate(terms):
        if m * (m - 1) // 2 % 2:
            sym *= hilbert_symbol(r, r, place)
        for s, n in terms[i + 1:]:
            if m * n % 2:
                sym *= hilbert_symbol(r, s, place)
    return sym


def diagonalize_symmetric(mat, field: BaseField = QQ) -> GwElement:
    """GW class of a nondegenerate symmetric rational matrix.

    Each entry is read with ``json_rational``, so ints, Fractions and strings
    such as "1/2" are accepted and floats are refused.  The nonzeros of each
    row go to ``_diagonalize_rows``, the one elimination kernel, as a dict.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ArithdtError("matrix is not square")
    rows = [
        {j: value for j, value in enumerate(json_rational(x, "matrix entry") for x in row) if value}
        for row in mat
    ]
    return _diagonalize_rows(rows, field)


def _diagonalize_rows(rows: list, field: BaseField) -> GwElement:
    """GW class of a symmetric matrix given as {column: nonzero Fraction} per row.

    Symmetric congruence reduction: the first nonzero diagonal entry is
    used as a pivot; when every remaining diagonal entry vanishes, the
    lexicographically first nonzero off-diagonal pair is consumed as a
    hyperbolic plane.  Deterministic by construction.

    Each Schur-complement update walks only the nonzeros of the pivot rows
    (column a is read off row a, by symmetry); entries that cancel are
    dropped.  A block-sparse matrix, such as a graded Gram matrix, is thus
    reduced block by block, with the pivots of the dense reduction.  The
    row dicts are consumed.
    """
    from fractions import Fraction

    for i, row in enumerate(rows):
        for j, x in row.items():
            if rows[j].get(i) != x:
                raise ArithdtError("matrix is not symmetric")

    entries: list[Fraction] = []
    active = list(range(len(rows)))
    while active:
        pivot = next((i for i in active if i in rows[i]), None)
        if pivot is not None:
            # 1x1 pivot d = m[p][p]: m[k][l] -= m[k][p] * m[p][l] / d
            d = rows[pivot][pivot]
            terms = [(pivot, pivot)]
            entries.append(d)
            active.remove(pivot)
        else:
            # the rows of active indices hold only active columns
            block = next(((i, j) for i in active for j in sorted(rows[i]) if j > i), None)
            if block is None:
                raise SingularMatrixError("matrix is singular")
            # hyperbolic pivot [[0, d], [d, 0]]:
            # m[k][l] -= (m[k][j] * m[i][l] + m[k][i] * m[j][l]) / d
            i, j = block
            d = rows[i][j]
            terms = [(j, i), (i, j)]
            entries.extend([Fraction(1), Fraction(-1)])
            active.remove(i)
            active.remove(j)
        # Schur complement on the active block; the pivot rows and columns are dropped
        pivots = {a for a, _ in terms}
        for a, b in terms:
            pivot_row = [(l, x) for l, x in rows[b].items() if l not in pivots]
            for k, y in rows[a].items():
                if k in pivots:
                    continue
                c = y / d
                row = rows[k]
                del row[a]
                for l, x in pivot_row:
                    value = row.get(l, 0) - c * x
                    if value:
                        row[l] = value
                    else:
                        del row[l]

    return GwElement.from_diagonal(field, entries)


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
