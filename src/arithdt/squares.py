"""Square classes: canonical integer representatives of k^x/(k^x)^2.

Rank-one generators <a> of the Grothendieck-Witt ring are indexed by the
square classes of the base field k.  Each supported field gets a unique
integer representative per class -- square-free with sign over Q, +-1 over
R, 1 over C, and 1 or a fixed least nonresidue over F_p -- so that equality
and hashing of generators reduce to integer comparisons.  The square-free
part is ``fields.squarefree_part``.  ``gw``, ``forms`` and the ``gw``
subcommand import this module, so a job that makes no quadratic form (a
complex, real or motivic ``dt-a3`` job) compiles no square-class code.
"""

from __future__ import annotations

from .errors import ArithdtError, brief_str, json_rational
from .fields import BaseField, Frozen, squarefree_part


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


def square_class_rep(field: BaseField, value) -> int:
    """Canonical integer representative of the square class of value.

    An int is read as it is (its numerator is itself, its denominator 1), and
    anything else by ``json_rational``, so integer reps make no Fraction.
    """
    if type(value) is not int:
        value = json_rational(value, "value")
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
        raise ArithdtError(f"{brief_str(value)} is not a unit modulo {p}")
    a = value.numerator * pow(value.denominator, -1, p) % p
    return 1 if legendre_symbol(a, p) == 1 else least_nonresidue(p)


class SquareClass(Frozen):
    """A square class in canonical form; <a> and <a*b^2> share one instance."""

    __slots__ = __match_args__ = ("field", "rep")

    def __init__(self, field: BaseField, rep: int) -> None:
        if square_class_rep(field, rep) != rep:
            raise ArithdtError(f"{rep} is not a canonical representative over {field}")
        self._assign(field, rep)

    @classmethod
    def of(cls, field: BaseField, value) -> "SquareClass":
        return cls._make(field, square_class_rep(field, value))

    @classmethod
    def _make(cls, field: BaseField, rep: int) -> "SquareClass":
        """Trusted constructor: rep is canonical already, so it is not factored again."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "rep", rep)
        return obj

    def __str__(self) -> str:
        return f"<{self.rep}>"
