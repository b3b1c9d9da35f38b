"""The Gaussian integers Z[i], the value ring of the real Euler characteristic.

Kept apart from ``gwalpha`` and ``gw``, so that the real DT series, a series
over Z[i] (``GAUSSIAN_RING``, its series adapter), compiles no quadratic-form
module.
"""

from __future__ import annotations

from .errors import ArithdtError, json_int
from .fields import CoefficientRing, Frozen, binary_power


class GaussianInteger(Frozen):
    """Exact element of Z[i], the value ring of the real Euler characteristic."""

    __slots__ = __match_args__ = ("re", "im")

    def __init__(self, re: int, im: int) -> None:
        # one is made per ring operation: set directly, as _assign's loop costs twice as much
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __add__(self, other: "GaussianInteger") -> "GaussianInteger":
        return GaussianInteger(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInteger") -> "GaussianInteger":
        return GaussianInteger(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianInteger":
        return GaussianInteger(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, int):
            return GaussianInteger(self.re * other, self.im * other)
        if isinstance(other, GaussianInteger):
            return GaussianInteger(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GaussianInteger":
        if n < 0:
            raise ArithdtError("negative powers of Gaussian integers are not defined here")
        return binary_power(self, n, GAUSSIAN_ONE)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        return f"{self.re}{self.im:+}i"

    __repr__ = __str__

    def to_json_dict(self) -> dict:
        return {"re": self.re, "im": self.im}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GaussianInteger":
        return cls(json_int(data["re"], "re"), json_int(data["im"], "im"))


GAUSSIAN_ZERO = GaussianInteger(0, 0)
GAUSSIAN_ONE = GaussianInteger(1, 0)
GAUSSIAN_RING = CoefficientRing("Z[i]", GAUSSIAN_ZERO, GAUSSIAN_ONE)
