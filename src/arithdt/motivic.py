"""The Tate subring Z[L^{1/2}, L^{-1/2}] of the ring of motivic weights.

A MotivicClass is a Laurent polynomial in the half power u = L^{1/2} with
integer coefficients (exponents are stored in u-units, so L^{k/2} is exact
for every integer k), optionally extended by named symbolic generators for
point classes that are not Tate -- e.g. the class of Spec C over R.  Only
finitely many generators are ever needed and products of two generator
parts fall outside the supported subring and are rejected.

Canonical form (ascending exponents, nonzero int coefficients, one entry per
sorted generator name) is made by one kernel, ``_canonical``: one ``_sum_u``
(``fields.linear_sum`` in ascending order) per name over a stream of parts.
The constructor, ``+``, ``*`` and ``sum_products`` (the sum of classes times
u-term weights that ``nearby`` takes) go through it; the trusted
``MotivicClass._make`` stores what it is given.

Three ring morphisms specialize a class, all through one evaluation:

* ``chi_a1`` sends u to alpha with alpha^2 = <-1>, with values in
  GW(k)(alpha): the compactly supported A^1-Euler characteristic;
* ``chi_complex`` sends u to -1 (so L goes to 1): the topological Euler
  characteristic with compact support, the rank of ``chi_a1``;
* ``chi_real`` sends u to i (so L goes to -1), with values in Z[i]: the
  signature of ``chi_a1``, taken over R, where square classes are signs.

A generator's values are a ``gwalpha.GeneratorSpec``, and the default
table (``gwalpha.DEFAULT_GENERATORS``, with ``SPEC_C``) is built when
``gwalpha`` loads.  Loading this module compiles no quadratic-form module:
``chi_a1`` and ``quadratic_point_generator`` import ``gw``, ``gwalpha`` and
``gaussian``, so a job that only multiplies classes needs none of them
(``JOBS``, tests/test_package.py).
"""

from __future__ import annotations

from itertools import chain, zip_longest

from .errors import ArithdtError, GeneratorProductError, json_int
from .fields import BaseField, CoefficientRing, QQ, RR, Value, binary_power, linear_sum, render_sum

_UTerms = tuple  # tuple[tuple[int, int], ...], ascending exponents


def _sum_u(*parts) -> _UTerms:
    """Canonical sum of (exponent, coefficient) pairs with int entries."""
    return tuple(sorted(linear_sum(chain.from_iterable(parts)).items()))


def _exact_u(terms) -> list:
    if hasattr(terms, "items"):
        terms = terms.items()
    return [(json_int(e, "exponent"), json_int(c, "coefficient")) for e, c in terms]


def _products_u(a, b):
    """The pairwise products of two term sequences, as pairs not yet summed."""
    return ((e1 + e2, c1 * c2) for e1, c1 in a for e2, c2 in b)


def _canonical(parts) -> tuple:
    """The canonical (u_terms, extras) of a stream of (name, terms) parts, name None
    for u-terms: the parts are read in order, and the terms of each name summed once."""
    groups: dict = {None: []}
    for name, terms in parts:
        groups.setdefault(name, []).append(terms)
    u_terms = _sum_u(*groups.pop(None))  # popped first: sorted() cannot compare None with a name
    return u_terms, tuple((n, c) for n in sorted(groups) if (c := _sum_u(*groups[n])))


def _neg_u(a: _UTerms) -> _UTerms:
    return tuple((e, -c) for e, c in a)


class MotivicClass(Value):
    """An element of Z[L^{1/2}, L^{-1/2}], possibly with symbolic generators."""

    __slots__ = __match_args__ = ("u_terms", "extras")

    def __init__(self, u_terms=(), extras=()):
        if hasattr(extras, "items"):
            extras = extras.items()
        # the u-terms are checked first, then each generator part in input order
        self.u_terms, self.extras = _canonical(chain(
            ((None, _exact_u(u_terms)),), ((str(n), _exact_u(c)) for n, c in extras)))

    @classmethod
    def _make(cls, u_terms: _UTerms, extras: tuple = ()) -> "MotivicClass":
        """Trusted constructor: canonical u-terms and extras (a sorted tuple), stored as given."""
        obj = object.__new__(cls)
        obj.u_terms = u_terms
        obj.extras = extras
        return obj

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "MotivicClass":
        return cls()

    @classmethod
    def from_int(cls, n: int) -> "MotivicClass":
        return cls([(0, n)])

    @classmethod
    def one(cls) -> "MotivicClass":
        return cls.from_int(1)

    @classmethod
    def u_power(cls, e: int, coeff: int = 1) -> "MotivicClass":
        """coeff * L^{e/2}; e counts half powers."""
        return cls([(e, coeff)])

    @classmethod
    def lefschetz(cls, k: int = 1) -> "MotivicClass":
        """L^k for any integer k."""
        return cls([(2 * k, 1)])

    @classmethod
    def generator(cls, name: str, coeff: int = 1) -> "MotivicClass":
        return cls((), [(name, [(0, coeff)])])

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = MotivicClass.from_int(other)
        if not isinstance(other, MotivicClass):
            return NotImplemented
        return MotivicClass._make(*_canonical(
            ((None, self.u_terms), *self.extras, (None, other.u_terms), *other.extras)))

    __radd__ = __add__

    def __neg__(self) -> "MotivicClass":
        return MotivicClass._make(_neg_u(self.u_terms), tuple((n, _neg_u(c)) for n, c in self.extras))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = MotivicClass.from_int(other)
        if not isinstance(other, MotivicClass):
            return NotImplemented
        if self.extras and other.extras:
            raise GeneratorProductError(
                "product of two non-Tate generator classes is outside the supported subring"
            )
        # every part of the class with extras (if any) times the other's u-terms
        m, w = (other, self.u_terms) if other.extras else (self, other.u_terms)
        return sum_products(((m, w),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MotivicClass":
        if n < 0:
            raise ArithdtError("negative powers are only defined for monomials; use u_power")
        return binary_power(self, n, MotivicClass.one())

    def is_zero(self) -> bool:
        return not self.u_terms and not self.extras

    # -- rendering and JSON ----------------------------------------------------

    @staticmethod
    def _render_u_power(e: int) -> str:
        if e == 0:
            return ""
        if e == 2:
            return "L"
        if e % 2 == 0:
            return f"L^{{{e // 2}}}"
        return f"L^{{{e}/2}}"

    def render(self) -> str:
        u_pieces = ((self._render_u_power(e), c) for e, c in reversed(self.u_terms))
        return render_sum(chain(u_pieces, self._extras_pieces()))

    def _extras_pieces(self):
        for name, coeff in self.extras:
            if len(coeff) == 1 and coeff[0][0] == 0:
                yield f"[{name}]", coeff[0][1]
            else:
                yield f"({MotivicClass._make(coeff).render()})*[{name}]", 1

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"MotivicClass({self.render()})"

    def to_json_dict(self) -> dict:
        """The canonical (exponent, coefficient) tuples, which JSON writes as arrays."""
        return {"u_coeffs": self.u_terms, "extras": dict(self.extras)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MotivicClass":
        return cls(data.get("u_coeffs", []), data.get("extras", {}))


def sum_products(pairs) -> MotivicClass:
    """The sum of m * w over (m, w) pairs, m a class and w u-terms: every part of
    every m times its w, lazily, in one ``_canonical``; no class is built per pair."""
    return MotivicClass._make(*_canonical(
        (name, _products_u(terms, w))
        for m, w in pairs for name, terms in ((None, m.u_terms), *m.extras)))


L = MotivicClass.lefschetz()
L_HALF = MotivicClass.u_power(1)
L_INV = MotivicClass.lefschetz(-1)
MOT_ONE = MotivicClass.one()
MOT_ZERO = MotivicClass.zero()
MOTIVIC_RING = CoefficientRing("motivic", MOT_ZERO, MOT_ONE)


def quadratic_point_generator(d: int) -> GeneratorSpec:
    """Generator for the class of Spec of a quadratic field Q(sqrt(d)).

    The A^1-Euler characteristic is the trace form of the extension, with
    Gram matrix diag(2, 2d) on the basis (1, sqrt(d)).
    """
    from .gaussian import GaussianInteger
    from .gw import trace_form
    from .gwalpha import GeneratorSpec, GwAlphaElement

    chi_a1 = GwAlphaElement.from_even(trace_form(d, 1))
    chi_real = GaussianInteger(2 if d > 0 else 0, 0)
    return GeneratorSpec(f"SpecQ(sqrt({d}))", 2, chi_real, chi_a1)


def chi_a1(m: MotivicClass, field: BaseField = QQ, generators=None) -> GwAlphaElement:
    """Evaluate u -> alpha; the compactly supported A^1-Euler characteristic.

    A generator class is looked up in ``generators``, by default
    ``gwalpha.DEFAULT_GENERATORS``.
    """
    from .gwalpha import DEFAULT_GENERATORS, _alpha_sum

    table = DEFAULT_GENERATORS if generators is None else generators
    total = _alpha_sum(m.u_terms, field)
    for name, coeff in m.extras:
        try:
            spec = table[name]
        except KeyError:
            raise ArithdtError(f"unknown generator class [{name}]") from None
        total = total + _alpha_sum(coeff, field) * spec.chi_a1.to_field(field)
    return total


def chi_complex(m: MotivicClass, generators=None) -> int:
    """Evaluate u -> -1; the compactly supported complex Euler characteristic.

    This is the rank of ``chi_a1`` with alpha sent to -1.
    """
    return chi_a1(m, RR, generators).numeric_complex()


def chi_real(m: MotivicClass, generators=None) -> GaussianInteger:
    """Evaluate u -> i; the compactly supported real Euler characteristic in Z[i].

    This is the signature of ``chi_a1`` with alpha sent to i.
    """
    return chi_a1(m, RR, generators).numeric_real()


def projective_space_class(n: int) -> MotivicClass:
    """[P^n] = 1 + L + ... + L^n."""
    if n < 0:
        raise ArithdtError("projective spaces need n >= 0")
    return MotivicClass([(2 * i, 1) for i in range(n + 1)])


def grassmannian_class(n: int, k: int) -> MotivicClass:
    """[Gr(n, k)] as the Gaussian binomial [n choose k]_L.

    Built row by row with the q-Pascal rule [m, j] = [m-1, j-1] + L^j [m-1, j].
    """
    if not 0 <= k <= n:
        raise ArithdtError("Grassmannians need 0 <= k <= n")
    # row[j]: coefficients of [m choose j]_L by ascending power of L, for j <= min(m, k)
    row = [[1]]
    for m in range(1, n + 1):
        prev, row = row, [[1]]
        for j in range(1, min(m, k) + 1):
            shifted = [0] * j + prev[j] if j < m else []
            row.append([a + b for a, b in zip_longest(prev[j - 1], shifted, fillvalue=0)])
    # the coefficients count partitions in a k x (n-k) box: all positive
    return MotivicClass._make(tuple((2 * i, c) for i, c in enumerate(row[k])))
