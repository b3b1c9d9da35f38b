"""Exception hierarchy shared across the package.

Every domain error raised by library code derives from ArithdtError so the
CLI can map it to a single exit code; usage errors are left to argparse.
"""

from fractions import Fraction


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


class InexactDivisionError(ArithdtError):
    """A polynomial division that must be exact left a remainder.

    No longer raised by the library; kept for callers that catch it.
    """


class PositiveDimensionalIdealError(ArithdtError):
    """The ideal does not cut out a finite-dimensional quotient algebra."""


class NotSupportedAtOriginError(ArithdtError):
    """The zero locus of the ideal is not concentrated at the origin."""


class DegenerateSystemError(ArithdtError):
    """A map violates a regularity precondition (vanishing Jacobian, repeated roots)."""


class UnsupportedExtensionError(ArithdtError):
    """A residue field extension beyond quadratic is required but unsupported.

    No longer raised by the library, since global degrees take any residue
    field; kept for callers that catch it.
    """


class NonIntegralCoefficientError(ArithdtError):
    """A formula produced non-integral multiplicities where integers are required."""


class InputDataError(ArithdtError):
    """Malformed or missing user-supplied data."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of an immutable value object.

    An AttributeError, as for any read-only attribute, and not an
    ArithdtError: it is a programming error, not a domain error.
    """


def json_int(value, what: str) -> int:
    """``value`` if it is an int, as JSON integers are; floats, bools, fractions
    and strings are refused, never truncated."""
    if type(value) is not int:
        raise InputDataError(f"{what} must be an integer, got {value!r}")
    return value


def json_rational(value, what: str) -> Fraction:
    """``value`` as a Fraction if it is an int, a Fraction or a rational string;
    floats and bools are refused, never read as binary fractions."""
    if type(value) is not int and not isinstance(value, (Fraction, str)):
        raise InputDataError(f"{what} must be an integer, a fraction or a rational string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise InputDataError(f"{what} is not a rational number: {value!r}") from None
