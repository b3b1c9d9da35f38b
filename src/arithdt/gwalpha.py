"""GW(k)(alpha), where alpha is a formal square root of <-1>.

A GwAlphaElement is even + odd*alpha with even and odd in GW(k): the
receptacle for half powers of the Lefschetz class under the compactly
supported A^1-Euler characteristic.  Its signed real count lies in the
Gaussian integers, GaussianInteger, defined in ``gaussian`` and importable
from here.  Kept apart from ``gw`` so that a job in GW(k) alone does not
compile this module (``JOBS``, tests/test_package.py).

The values of ``motivic``'s generators are elements of this ring, so their
``GeneratorSpec`` and the default table ``DEFAULT_GENERATORS`` (with
``SPEC_C``) live here, built when this module loads.
"""

from __future__ import annotations

from .errors import ArithdtError, FieldMismatchError
from .fields import BaseField, CoefficientRing, Frozen, QQ, Value
from .gaussian import GaussianInteger
from .gw import GwElement


class GwAlphaElement(Value):
    """even + odd*alpha in GW(k)(alpha), where alpha^2 = <-1>."""

    __slots__ = __match_args__ = ("even", "odd")

    def __init__(self, even: GwElement, odd: GwElement):
        if even.field != odd.field:
            raise FieldMismatchError("even and odd parts over different fields")
        self.even = even
        self.odd = odd

    @property
    def field(self) -> BaseField:
        return self.even.field

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: BaseField = QQ) -> "GwAlphaElement":
        z = GwElement.zero(field)
        return cls(z, z)

    @classmethod
    def one(cls, field: BaseField = QQ) -> "GwAlphaElement":
        return cls(GwElement.one(field), GwElement.zero(field))

    @classmethod
    def alpha(cls, field: BaseField = QQ) -> "GwAlphaElement":
        return cls(GwElement.zero(field), GwElement.one(field))

    @classmethod
    def from_even(cls, even: GwElement) -> "GwAlphaElement":
        return cls(even, GwElement.zero(even.field))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "GwAlphaElement") -> "GwAlphaElement":
        if not isinstance(other, GwAlphaElement):
            return NotImplemented
        # GwElement's + and * refuse mixed base fields
        return GwAlphaElement(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other: "GwAlphaElement") -> "GwAlphaElement":
        return self + (-other)

    def __neg__(self) -> "GwAlphaElement":
        return GwAlphaElement(-self.even, -self.odd)

    def __mul__(self, other):
        if isinstance(other, int):
            return GwAlphaElement(self.even * other, self.odd * other)
        if isinstance(other, GwElement):
            other = GwAlphaElement.from_even(other)
        if not isinstance(other, GwAlphaElement):
            return NotImplemented
        minus_one = GwElement.unit(self.field, -1)
        even = self.even * other.even + minus_one * (self.odd * other.odd)
        odd = self.even * other.odd + self.odd * other.even
        return GwAlphaElement(even, odd)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def gw_equal(self, other: "GwAlphaElement") -> bool:
        return self.even.gw_equal(other.even) and self.odd.gw_equal(other.odd)

    # -- specializations -----------------------------------------------------

    def rank(self) -> int:
        """Total rank of the underlying form, alpha treated as a unit."""
        return self.even.rank() + self.odd.rank()

    def numeric_complex(self) -> int:
        """Rank termwise with alpha sent to -1: the count over the closure."""
        return self.even.rank() - self.odd.rank()

    def numeric_real(self) -> GaussianInteger:
        """Signature termwise with alpha sent to i: the signed real count."""
        return GaussianInteger(self.even.signature(), self.odd.signature())

    def to_field(self, field: BaseField) -> "GwAlphaElement":
        return GwAlphaElement(self.even.to_field(field), self.odd.to_field(field))

    def render(self, contract_h: bool = False) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if not self.even.is_zero():
            parts.append(self.even.render(contract_h))
        if not self.odd.is_zero():
            body = self.odd.render(contract_h)
            if " " in body or body.startswith("-"):
                body = f"({body})"
            parts.append(f"a*{body}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"GwAlphaElement({self.field}; {self.render()})"

    def to_json_dict(self) -> dict:
        return {"even": self.even.to_json_dict(), "odd": self.odd.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GwAlphaElement":
        return cls(GwElement.from_json_dict(data["even"]), GwElement.from_json_dict(data["odd"]))


def gw_alpha_ring(field: BaseField = QQ) -> CoefficientRing:
    """The series adapter of GW(field)(alpha)."""
    return CoefficientRing(
        f"GW({field})(a)", GwAlphaElement.zero(field), GwAlphaElement.one(field)
    )


class GeneratorSpec(Frozen):
    """Specialization data for one symbolic generator class of ``motivic``.

    chi_a1 is stored over Q and reinterpreted over the requested field; the
    three values must be mutually consistent (rank and signature of chi_a1
    recover chi_complex and chi_real).
    """

    __slots__ = __match_args__ = ("name", "chi_complex", "chi_real", "chi_a1")

    def __init__(self, name: str, chi_complex: int, chi_real: GaussianInteger,
                 chi_a1: GwAlphaElement) -> None:
        if chi_a1.numeric_complex() != chi_complex:
            raise ArithdtError(f"generator {name}: chi_a1 rank does not match chi_complex")
        if chi_a1.numeric_real() != chi_real:
            raise ArithdtError(f"generator {name}: chi_a1 signature does not match chi_real")
        self._assign(name, chi_complex, chi_real, chi_a1)


def _alpha_sum(terms, field: BaseField) -> GwAlphaElement:
    """Sum of c * alpha^e over (e, c) pairs, with coefficients summed by e mod 4.

    alpha^e = <(-1)^(e//2)> * alpha^(e%2), so e = 0, 1, 2, 3 mod 4 give
    <1>, <1>alpha, <-1>, <-1>alpha.
    """
    b = [0, 0, 0, 0]
    for e, c in terms:
        b[e % 4] += c
    return GwAlphaElement(
        GwElement(field, [(1, b[0]), (-1, b[2])]),
        GwElement(field, [(1, b[1]), (-1, b[3])]),
    )


def alpha_power(field: BaseField, e: int) -> GwAlphaElement:
    """alpha^e for any integer e, using alpha^2 = <-1> and alpha^-1 = <-1>alpha."""
    return _alpha_sum(((e, 1),), field)


# the class of Spec C over R: a conjugate pair of points
SPEC_C = GeneratorSpec(
    "SpecC", 2, GaussianInteger(0, 0), GwAlphaElement.from_even(GwElement.hyperbolic(QQ))
)
DEFAULT_GENERATORS = {SPEC_C.name: SPEC_C}
