"""Base fields and canonical square-class representatives.

Rank-one generators <a> of the Grothendieck-Witt ring are indexed by the
square classes k^x/(k^x)^2 of the base field k.  Each supported field gets
a unique integer representative per class -- square-free with sign over Q,
+-1 over R, 1 over C, and 1 or a fixed least nonresidue over F_p -- so that
equality and hashing of generators reduce to integer comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ArithdtError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def squarefree_part(n: int) -> int:
    """Largest square-free divisor of |n|, carrying the sign of n.

    Trial division only; inputs stay desk-scale throughout the package.
    """
    if n == 0:
        raise ArithdtError("0 has no square class")
    sign = 1 if n > 0 else -1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
        d += 1 if d == 2 else 2
    return sign * out * n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def legendre_symbol(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def least_nonresidue(p: int) -> int:
    for n in range(2, p):
        if legendre_symbol(n, p) == -1:
            return n
    raise ArithdtError(f"{p} admits no quadratic nonresidue; not an odd prime?")


@dataclass(frozen=True)
class BaseField:
    """One of Q, R, C, or F_p with p an odd prime.

    The finite fields are an artifact extension: the geometric theory
    computed by this package lives in characteristic zero, but F_p
    exercises the square-class logic cheaply.
    """

    kind: str
    p: int | None = None

    RATIONALS = "Q"
    REALS = "R"
    COMPLEXES = "C"
    FINITE = "F"

    def __post_init__(self) -> None:
        if self.kind not in (self.RATIONALS, self.REALS, self.COMPLEXES, self.FINITE):
            raise ArithdtError(f"unknown base field kind: {self.kind!r}")
        if self.kind == self.FINITE:
            if self.p is None or self.p == 2 or not is_prime(self.p):
                raise ArithdtError("finite base fields require an odd prime p")
        elif self.p is not None:
            raise ArithdtError("p is only meaningful for finite fields")

    @property
    def is_ordered(self) -> bool:
        return self.kind in (self.RATIONALS, self.REALS)

    def label(self) -> str:
        return f"F{self.p}" if self.kind == self.FINITE else self.kind

    def __str__(self) -> str:
        return self.label()


QQ = BaseField(BaseField.RATIONALS)
RR = BaseField(BaseField.REALS)
CC = BaseField(BaseField.COMPLEXES)


def finite_field(p: int) -> BaseField:
    return BaseField(BaseField.FINITE, p)


def parse_field_label(label: str) -> BaseField:
    """Inverse of BaseField.label, for CLI and JSON use."""
    label = label.strip()
    if label == "Q":
        return QQ
    if label == "R":
        return RR
    if label == "C":
        return CC
    if label.startswith("F"):
        try:
            return finite_field(int(label[1:]))
        except ValueError:
            pass
    raise ArithdtError(f"unrecognized base field label: {label!r}")


def square_class_rep(field: BaseField, value) -> int:
    """Canonical integer representative of the square class of value."""
    value = Fraction(value)
    if value == 0:
        raise ArithdtError("square classes are indexed by nonzero elements")
    kind = field.kind
    if kind == BaseField.COMPLEXES:
        return 1
    if kind == BaseField.REALS:
        return 1 if value > 0 else -1
    if kind == BaseField.RATIONALS:
        return squarefree_part(value.numerator * value.denominator)
    p = field.p
    if value.numerator % p == 0 or value.denominator % p == 0:
        raise ArithdtError(f"{value} is not a unit modulo {p}")
    a = value.numerator * pow(value.denominator, -1, p) % p
    return 1 if legendre_symbol(a, p) == 1 else least_nonresidue(p)


@dataclass(frozen=True)
class SquareClass:
    """A square class in canonical form; <a> and <a*b^2> share one instance."""

    field: BaseField
    rep: int

    def __post_init__(self) -> None:
        if square_class_rep(self.field, self.rep) != self.rep:
            raise ArithdtError(f"{self.rep} is not a canonical representative over {self.field}")

    @classmethod
    def of(cls, field: BaseField, value) -> "SquareClass":
        return cls._make(field, square_class_rep(field, value))

    @classmethod
    def _make(cls, field: BaseField, rep: int) -> "SquareClass":
        """Trusted constructor: rep is canonical already, so it is not factored again."""
        obj = object.__new__(cls)
        obj.__dict__.update(field=field, rep=rep)
        return obj

    def __str__(self) -> str:
        return f"<{self.rep}>"
