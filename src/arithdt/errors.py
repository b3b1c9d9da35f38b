"""Exception hierarchy shared across the package.

Every domain error raised by library code derives from ArithdtError so the
CLI can map it to a single exit code; usage errors are left to argparse.
"""

import sys


class ArithdtError(Exception):
    """Base class for domain errors raised by this package."""


class FieldMismatchError(ArithdtError):
    """Operands live over different base fields."""


class UnsupportedFieldError(ArithdtError):
    """The operation is undefined over the given base field."""


class SingularMatrixError(ArithdtError):
    """A symmetric matrix expected to be nondegenerate is singular."""


class NonUnitError(ArithdtError):
    """A value required to be a unit (invertible) is not."""


class SeriesMismatchError(ArithdtError):
    """Truncated series with different orders or coefficient rings."""


class GeneratorProductError(ArithdtError):
    """Product of two non-Tate generator classes, outside the supported subring."""


class PositiveDimensionalIdealError(ArithdtError):
    """The ideal does not cut out a finite-dimensional quotient algebra."""


class NotSupportedAtOriginError(ArithdtError):
    """The zero locus of the ideal is not concentrated at the origin."""


class DegenerateSystemError(ArithdtError):
    """A map violates a regularity precondition (vanishing Jacobian, repeated roots)."""


class NonIntegralCoefficientError(ArithdtError):
    """A formula produced non-integral multiplicities where integers are required."""


class InputDataError(ArithdtError):
    """Malformed or missing user-supplied data."""


class IntegerTooLongError(ArithdtError):
    """An answer holds an integer of more digits than str() writes.

    The CLI reports the ValueError that str() raises for such an int as this.
    """

    def __init__(self) -> None:
        super().__init__(f"the answer holds an integer of more than {sys.get_int_max_str_digits()} "
                         "digits, more than is written as text (PYTHONINTMAXSTRDIGITS sets the limit)")


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of an immutable value object.

    An AttributeError, as for any read-only attribute, and not an
    ArithdtError: it is a programming error, not a domain error.
    """


def brief(value) -> str:
    """``value`` as an error line echoes it: its repr, whole up to 80 characters.

    A longer one is cut to its first 40 characters and its length.  A string
    is cut before its repr is taken, so the length is the input's own, and an
    int is cut by arithmetic, as str() refuses ints of over 4,300 digits.
    """
    if type(value) is int:
        n = abs(value)
        if n < 10**80:
            return str(value)
        digits = (n.bit_length() - 1) * 1233 >> 12  # below log10(n): 1233 / 4096 < log10(2)
        while 10**digits <= n:
            digits += 1
        return f"{'-' * (value < 0)}{n // 10 ** (digits - 40)}... ({digits} digits)"
    if isinstance(value, str):
        return repr(value) if len(value) <= 80 else f"{value[:40]!r}... ({len(value)} characters)"
    return _cut(repr(value))


def brief_str(value: "Fraction") -> str:
    """``str(value)`` cut as ``brief`` cuts a repr, so ``1/5`` stays ``1/5``.

    A part of over 4,300 digits, which str() refuses, is shown as ``brief`` shows an int.
    """
    try:
        return _cut(str(value))
    except ValueError:
        return f"{brief(value.numerator)}/{brief(value.denominator)}"


def _cut(text: str) -> str:
    return text if len(text) <= 80 else f"{text[:40]}... ({len(text)} characters)"


def json_int(value, what: str) -> int:
    """``value`` if it is an int, as JSON integers are; floats, bools, fractions
    and strings are refused, never truncated."""
    if type(value) is not int:
        raise InputDataError(f"{what} must be an integer, got {brief(value)}")
    return value


def json_rational(value, what: str) -> "Fraction":
    """``value`` as a Fraction if it is an int, a Fraction or a rational string;
    floats and bools are refused, never read as binary fractions.

    ``fractions`` is imported here, not when this module loads: a job that
    makes no rational does not load it (nor ``decimal`` and ``numbers``).
    """
    from fractions import Fraction

    if type(value) is not int and not isinstance(value, (Fraction, str)):
        raise InputDataError(f"{what} must be an integer, a fraction or a rational string, got {brief(value)}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise InputDataError(f"{what} is not a rational number: {brief(value)}") from None
