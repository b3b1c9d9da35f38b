"""Truncated formal power series in one variable over a caller-supplied ring.

Coefficients live in any commutative ring whose elements support +, -, *
and ==; the ring itself is described by a small adapter carrying its zero
and one.  A series of order N stores coefficients of t^0 .. t^N and every
operation truncates eagerly at that order.  Inverses and negative powers
are applied by one in-place division, __truediv__, whose cost is the
divisor's nonzero terms times the order.  dt.py builds its series from
coefficient lists and does no series arithmetic: one integer recurrence
gives Z(T u) at q = u^2, which is MacMahon's series at u = 1, M^sym at u = i
and packs the motivic series at q = 2^b.  The complex, real and arithmetic
series are all read off the first two.

Loading this module compiles no ring module and imports no ``fractions``:
it defines only INT_RING, the adapter of Z.  Every other ring's adapter is
defined in the module of its elements (``gaussian.GAUSSIAN_RING``,
``motivic.MOTIVIC_RING``, ``gw.gw_ring``, ``gwalpha.gw_alpha_ring``), so a
series over Z needs only ``fields`` (``JOBS``, tests/test_package.py).
"""

from __future__ import annotations

from .errors import ArithdtError, NonUnitError, SeriesMismatchError
from .fields import CoefficientRing, Value, binary_power

INT_RING = CoefficientRing("Z", 0, 1)


class TruncatedSeries(Value):
    """Power series in t modulo t^{order+1}, coefficients in a fixed ring."""

    __slots__ = __match_args__ = ("ring", "order", "coeffs")

    def __init__(self, ring: CoefficientRing, order: int, coeffs):
        if order < 1:
            raise ArithdtError("series order must be a positive integer")
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ArithdtError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        self.ring = ring
        self.order = order
        self.coeffs = tuple(coeffs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring: CoefficientRing, order: int) -> "TruncatedSeries":
        return cls(ring, order, [ring.zero] * (order + 1))

    @classmethod
    def one(cls, ring: CoefficientRing, order: int) -> "TruncatedSeries":
        return cls(ring, order, [ring.one] + [ring.zero] * order)

    @classmethod
    def from_terms(cls, ring: CoefficientRing, order: int, terms: dict) -> "TruncatedSeries":
        coeffs = [ring.zero] * (order + 1)
        for deg, c in terms.items():
            if deg < 0:
                raise ArithdtError("power series have no negative degrees")
            if deg <= order:
                coeffs[deg] = c
        return cls(ring, order, coeffs)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise SeriesMismatchError(f"orders differ: {self.order} vs {other.order}")
        if self.ring != other.ring:
            raise SeriesMismatchError(f"rings differ: {self.ring.name} vs {other.ring.name}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        return TruncatedSeries(
            self.ring, self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        return TruncatedSeries(
            self.ring, self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        zero = self.ring.zero
        out = [zero] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b == zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.ring, self.order, out)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Quotient by a divisor whose constant term is the ring identity.

        Solves out[n] = self[n] - sum_{d>=1} other[d] * out[n-d] in place,
        over the divisor's nonzero terms only.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        if other.coeffs[0] != self.ring.one:
            raise NonUnitError("series division requires a divisor with constant term one")
        zero = self.ring.zero
        terms = [(d, b) for d, b in enumerate(other.coeffs) if d and b != zero]
        out = list(self.coeffs)
        for n in range(1, self.order + 1):
            acc = out[n]
            for d, b in terms:
                if d > n:
                    break
                acc = acc - b * out[n - d]
            out[n] = acc
        return TruncatedSeries(self.ring, self.order, out)

    def inverse(self) -> "TruncatedSeries":
        """Two-sided inverse up to the truncation order (constant term one)."""
        return TruncatedSeries.one(self.ring, self.order) / self

    def __pow__(self, e: int) -> "TruncatedSeries":
        if e < 0:
            return TruncatedSeries.one(self.ring, self.order) / self ** (-e)
        return binary_power(self, e, TruncatedSeries.one(self.ring, self.order))

    def map_coeffs(self, fn, ring: CoefficientRing) -> "TruncatedSeries":
        """Apply a ring morphism termwise, landing in the given ring."""
        return TruncatedSeries(ring, self.order, [fn(c) for c in self.coeffs])

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"TruncatedSeries[{self.ring.name}; order {self.order}]({inner})"

    def to_json_dict(self) -> dict:
        coeffs = []
        for c in self.coeffs:
            if hasattr(c, "to_json_dict"):
                c = c.to_json_dict()
            elif not isinstance(c, int) and hasattr(c, "denominator"):  # a Fraction, as "p/q"
                c = str(c)
            coeffs.append(c)
        return {"ring": self.ring.name, "order": self.order, "coeffs": coeffs}
