"""Base fields, the square-free part of an integer, and the bases of every value type.

The base fields are Q, R, C and F_p (``BaseField``).  Their square classes,
with the canonical integer representative of each, live in ``squares``; this
module keeps ``squarefree_part`` and ``prime_factors``, the integer side of
the classes over Q.  The integers are factored in ``factor``, which
``squarefree_part`` and ``prime_factors`` import on the first input other
than +-1 (and 0), and the F_p constructor when it tests p: a job that factors
no integer compiles no factoring code (``JOBS``, tests/test_package.py).

The bases of every value type live here too (``Value``, ``Frozen``), and
``CoefficientRing``, the series adapter each ring module builds for itself.
"""

from __future__ import annotations

from math import prod
from operator import attrgetter

from .errors import ArithdtError, FrozenInstanceError, brief, json_int


def squarefree_part(n: int) -> int:
    """n divided by the largest square dividing it: square-free, with the sign of n."""
    if n == 1 or n == -1:
        return n
    if n == 0:
        raise ArithdtError("0 has no square class")
    from .factor import factorize

    return (1 if n > 0 else -1) * prod(p for p, e in factorize(n).items() if e % 2)


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending."""
    if -1 <= n <= 1:
        return []
    from .factor import factorize

    return list(factorize(n))


def binary_power(x, n: int, one):
    """x**n for an integer n >= 0 by square-and-multiply, with one as x**0."""
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


def linear_sum(pairs) -> dict:
    """{key: sum of its coefficients} over (key, coefficient) pairs, zero sums dropped.

    The sparse sum behind every ring's + and *; keys keep their first-seen order.
    """
    acc: dict = {}
    for key, c in pairs:
        acc[key] = acc[key] + c if key in acc else c
    return acc if all(acc.values()) else {key: c for key, c in acc.items() if c}


class Value:
    """Base of every value type: compared and hashed by its field tuple.

    A subclass names its fields in ``__match_args__``.  Instances of one class
    are equal when their field tuples are, and hash as that tuple; another
    type compares unequal.  The rings subclass it directly and set their slots
    in their constructors; the records subclass ``Frozen``.  Only ``MultiPoly``
    keeps its own ``__hash__``, as its terms are a dict.
    """

    __slots__ = ()
    __match_args__: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Frozen names no fields; every other subclass has two or more, so the key is a tuple
        if cls.__match_args__:
            cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # _key is an attrgetter, not a method: it takes the instance
        return self is other or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))


class Frozen(Value):
    """Base of the immutable record classes: fields set once, compared as a ``Value``.

    A subclass names its fields in ``__match_args__`` and stores them in
    ``__slots__`` (the same names, unless a field is computed); ``__init__``
    validates, then stores them once with ``_assign``.
    Assignment and deletion raise FrozenInstanceError, an AttributeError.
    """

    __slots__ = ()

    def _assign(self, *values) -> None:
        """Store values in the slots, in order; the one way a field is set."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the public constructor
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class CoefficientRing(Frozen):
    """Adapter naming a coefficient ring and carrying its constants."""

    __slots__ = __match_args__ = ("name", "zero", "one")

    def __init__(self, name: str, zero, one) -> None:
        self._assign(name, zero, one)


def render_sum(pieces) -> str:
    """Signed sum of (symbol, nonzero coefficient) pairs, "0" when there are none.

    A coefficient c shows as ``c*symbol``, or as the bare symbol when |c| = 1;
    the symbol of a constant is "", which shows |c| alone.  The leading sign
    is "-" or nothing, the others are joined as " + " or " - ".
    """
    out = []
    for sym, c in pieces:
        mag = abs(c)
        body = str(mag) if not sym else sym if mag == 1 else f"{mag}*{sym}"
        if out:
            out.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            out.append(f"-{body}" if c < 0 else body)
    return " ".join(out) or "0"


class BaseField(Frozen):
    """One of Q, R, C, or F_p with p an odd prime.

    The finite fields are an artifact extension: the geometric theory
    computed by this package lives in characteristic zero, but F_p
    exercises the square-class logic cheaply.
    """

    __slots__ = __match_args__ = ("kind", "p")

    RATIONALS = "Q"
    REALS = "R"
    COMPLEXES = "C"
    FINITE = "F"

    def __init__(self, kind: str, p: int | None = None) -> None:
        if kind not in (self.RATIONALS, self.REALS, self.COMPLEXES, self.FINITE):
            raise ArithdtError(f"unknown base field kind: {kind!r}")
        if kind == self.FINITE:
            from .factor import is_prime

            if p is None or json_int(p, "p") == 2 or not is_prime(p):
                raise ArithdtError("finite base fields require an odd prime p")
        elif p is not None:
            raise ArithdtError("p is only meaningful for finite fields")
        self._assign(kind, p)

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
    raise ArithdtError(f"unrecognized base field label: {brief(label)}")
