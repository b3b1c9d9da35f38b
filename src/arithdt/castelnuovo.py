"""Genus-bound bookkeeping and refined Gopakumar-Vafa classes for the quintic.

At the genus bound g = B(d) = (d^2 + 5d + 10)/10 (an integer exactly when
d = 5m), the relevant moduli space is a projective bundle P^N over P^4 with
N = C(m+3, 3) - C(m-2, 3) - 1, so its motivic virtual class is

    L^{N/2 + 2} (L^{N+1} - 1)(L^5 - 1) / (L - 1)^2 = L^{N/2+2} [P^N][P^4].

Direct evaluation of the A^1-Euler characteristic of that class, through
the morphism's values on [P^N] and [P^4], is the authoritative refined count
here.  A piecewise closed form for the same evaluation is also implemented,
literally, for comparison reports only: as stated it is inconsistent with
direct evaluation (its m = 0,1 (mod 4) branch produces half-integer
multiplicities at m = 1, and the m = 2,3 (mod 4) branch omits the overall
alpha factor forced by the odd half power L^{(N+4)/2}).  The comparison
report records the discrepancies rather than silently repairing them.
"""

from __future__ import annotations

from math import comb

from .errors import ArithdtError, NonIntegralCoefficientError
from .fields import BaseField, Frozen, QQ
from .gw import GwElement
from .gwalpha import GwAlphaElement, _alpha_sum


def castelnuovo_bound(d: int) -> Fraction:
    """B(d) = (d^2 + 5d + 10)/10, exactly."""
    if d < 1:
        raise ArithdtError("degrees are positive")
    from fractions import Fraction

    return Fraction(d * d + 5 * d + 10, 10)


def _choose3(a: int) -> int:
    return comb(a, 3) if a >= 3 else 0


def fiber_dimension(m: int) -> int:
    """N = C(m+3, 3) - C(m-2, 3) - 1, with C(a, 3) = 0 for a < 3."""
    if m < 1:
        raise ArithdtError("m must be a positive integer")
    return _choose3(m + 3) - _choose3(m - 2) - 1


class CastelnuovoInput(Frozen):
    """Degree d = 5m at the bound, with the derived genus g and dimensions.

    holomorphic_euler is n = 1 - g.
    """

    __slots__ = __match_args__ = ("m", "d", "genus", "holomorphic_euler", "fiber_dim")

    def __init__(self, m: int, d: int, genus: int, holomorphic_euler: int, fiber_dim: int) -> None:
        self._assign(m, d, genus, holomorphic_euler, fiber_dim)

    @classmethod
    def of(cls, m: int) -> "CastelnuovoInput":
        if m < 1:
            raise ArithdtError("m must be a positive integer")
        d = 5 * m
        bound = castelnuovo_bound(d)
        if bound.denominator != 1:
            raise ArithdtError(f"B({d}) is not an integer")
        g = int(bound)
        return cls(m=m, d=d, genus=g, holomorphic_euler=1 - g, fiber_dim=fiber_dimension(m))


def gv_virtual_class_motivic(m: int) -> MotivicClass:
    """L^{N/2+2} [P^N][P^4] as an exact class in half powers of L."""
    from .motivic import MotivicClass, projective_space_class

    n = fiber_dimension(m)
    return (
        MotivicClass.u_power(n + 4)
        * projective_space_class(n)
        * projective_space_class(4)
    )


def gv_arithmetic_direct(m: int, field: BaseField = QQ) -> GwAlphaElement:
    """chi_a1 of the motivic virtual class; the authoritative refined count.

    chi_a1 is a ring morphism sending u to alpha and L = u^2 to <-1>, so
    [P^n] goes to ceil((n+1)/2) <1> + floor((n+1)/2) <-1>.  The class, of
    about 2.5 m^2 terms, therefore has the image of the two-term class
    u^{N+4} (c_+ + c_- L), where c_+ <1> + c_- <-1> is the image of
    [P^N][P^4]: O(1) work however large m is, and no motivic class is made.
    """
    n = fiber_dimension(m)
    a, b = (n + 2) // 2, (n + 1) // 2  # [P^N] -> a<1> + b<-1>, and [P^4] -> 3<1> + 2<-1>
    return _alpha_sum(((n + 4, 3 * a + 2 * b), (n + 6, 2 * a + 3 * b)), field)


def gv_closed_form(m: int, field: BaseField = QQ) -> GwAlphaElement:
    """The piecewise comparison formula, evaluated literally.

    Raises NonIntegralCoefficientError when a branch produces non-integer
    multiplicities (this happens at m = 1).
    """
    n = fiber_dimension(m)
    # twice each multiplicity is odd when it is not whole, so k/2 is in lowest terms
    if m % 4 in (0, 1):
        plus, minus = 6 + 5 * n, 4 + 5 * n
        if n % 2:
            raise NonIntegralCoefficientError(
                f"branch m = 0,1 (mod 4) gives multiplicities {plus}/2 and {minus}/2 at m={m}"
            )
        body = GwElement.one(field) * (plus // 2) + GwElement.unit(field, -1) * (minus // 2)
        return GwAlphaElement.alpha(field) * GwAlphaElement.from_even(body)
    h = 5 * (n + 1)
    if n % 2 == 0:
        raise NonIntegralCoefficientError(f"branch m = 2,3 (mod 4) gives multiplicity {h}/2 at m={m}")
    return GwAlphaElement.from_even(GwElement.hyperbolic(field) * (h // 2))


class GvComparison(Frozen):
    """Direct evaluation vs the closed-form branches, with named discrepancies."""

    __slots__ = __match_args__ = (
        "m", "fiber_dim", "direct", "closed", "closed_error", "rank_direct", "rank_closed",
        "ranks_agree", "signatures_agree", "gw_equal_verdict", "alpha_factor_match", "description",
    )

    def __init__(self, m: int, fiber_dim: int, direct: GwAlphaElement,
                 closed: GwAlphaElement | None, closed_error: str | None, rank_direct: int,
                 rank_closed: int, ranks_agree: bool, signatures_agree: bool | None,
                 gw_equal_verdict: bool | None, alpha_factor_match: bool | None,
                 description: str) -> None:
        self._assign(m, fiber_dim, direct, closed, closed_error, rank_direct, rank_closed,
                     ranks_agree, signatures_agree, gw_equal_verdict, alpha_factor_match,
                     description)


def gv_compare(m: int, field: BaseField = QQ) -> GvComparison:
    n = fiber_dimension(m)
    direct = gv_arithmetic_direct(m, field)
    closed = None
    closed_error = None
    try:
        closed = gv_closed_form(m, field)
    except NonIntegralCoefficientError as exc:
        closed_error = str(exc)

    # the closed form's total rank is 5(N+1) on both branches, even when
    # the individual multiplicities fail to be integers
    rank_closed = 5 * (n + 1)
    rank_direct = direct.rank()
    ranks_agree = rank_direct == rank_closed

    signatures_agree = None
    gw_equal_verdict = None
    alpha_factor_match = None
    if closed is not None:
        gw_equal_verdict = direct.gw_equal(closed)
        if field.is_ordered:
            signatures_agree = direct.numeric_real() == closed.numeric_real()
        alpha_factor_match = direct.gw_equal(GwAlphaElement.alpha(field) * closed)

    if closed_error is not None:
        description = (
            f"closed form unavailable ({closed_error}); direct evaluation gives "
            f"{direct.render()}"
        )
    elif gw_equal_verdict:
        description = "direct evaluation and closed form agree exactly"
    elif alpha_factor_match:
        description = (
            "alpha-parity mismatch: direct evaluation equals alpha times the "
            f"closed form (direct {direct.render()} vs closed {closed.render()})"
        )
    else:
        description = (
            f"values disagree beyond an alpha factor: direct {direct.render()} "
            f"vs closed {closed.render()}"
        )
    return GvComparison(
        m=m,
        fiber_dim=n,
        direct=direct,
        closed=closed,
        closed_error=closed_error,
        rank_direct=rank_direct,
        rank_closed=rank_closed,
        ranks_agree=ranks_agree,
        signatures_agree=signatures_agree,
        gw_equal_verdict=gw_equal_verdict,
        alpha_factor_match=alpha_factor_match,
        description=description,
    )
