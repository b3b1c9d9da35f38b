"""Degree-zero DT partition functions of affine 3-space and their refinements.

The motivic series is the double product

    Z(t) = prod_{m>=1} prod_{k=0}^{m-1} (1 - L^{k+2-m/2} t^m)^{-1},

taken as the definition over any characteristic-zero field (the classes it
is built from do not depend on the field).  Its image under the A^1-Euler
characteristic factors into a quadratic-form-valued product; rank recovers
the MacMahon plane-partition series M(-t) and signature the symmetric
MacMahon series M^sym(-it).

Truncation lemma: the m-th factor of each infinite product is 1 + O(t^m),
so a series of order N only needs the finitely many factors with m <= N;
the truncated result is exact.  Each factor (1 - c t^m ...)^{-e} is applied
by one in-place division, result / factor**e, over its few nonzero terms.
The m linear factors of the motivic series that share t^m are applied as
one: their product, expanded by the q-binomial theorem, has nonzero terms
only at t^{jm} for j <= min(m, N // m).

On the moduli side, the Hilbert scheme of points of A^3 is the critical
locus of (A, B, C, v) -> Tr([A, B] C) on a space of matrix triples; the
gradient identity that drives that description is implemented and tested
here as well.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArithdtError, json_rational
from .fields import BaseField, Frozen, QQ, RR
from .gw import GwAlphaElement, GwElement, alpha_power
from .motivic import MotivicClass, chi_a1, grassmannian_class
from .series import (
    GAUSSIAN_RING,
    INT_RING,
    MOTIVIC_RING,
    TruncatedSeries,
    gw_alpha_ring,
)


def z_motivic(order: int) -> TruncatedSeries:
    """Motivic partition function, coefficients in Z[L^{1/2}, L^{-1/2}].

    For each m the linear factors 1 - L^k x, k < m, with x = L^{2-m/2} t^m,
    multiply out by the q-binomial theorem (Andrews, *The Theory of
    Partitions*, ch. 3) to

        prod_{k<m} (1 - L^k x) = sum_j (-1)^j L^{j(j-1)/2} [m choose j]_L x^j,

    so the series is divided once per m, by that sum truncated at t^N,
    instead of once per linear factor.
    """
    result = TruncatedSeries.one(MOTIVIC_RING, order)
    for m in range(1, order + 1):
        # prod_{k<m} (1 - L^k x) at x = u^{4-m} t^m, expanded by the q-binomial theorem
        terms = {0: MOTIVIC_RING.one}
        for j in range(1, min(m, order // m) + 1):
            shift = MotivicClass.u_power(j * (j - 1) + (4 - m) * j, (-1) ** j)
            terms[j * m] = shift * grassmannian_class(m, j)
        result = result / TruncatedSeries.from_terms(MOTIVIC_RING, order, terms)
    return result


def z_arithmetic(order: int, field: BaseField = QQ) -> TruncatedSeries:
    """Quadratic-form refinement, coefficients in GW(k)(alpha).

    Built directly from the factored product: for each m the m paired signs
    combine into (1 - (alpha t)^m H + <-1> (alpha t)^{2m})^{-floor(m/2)},
    and odd m leave one unpaired factor (1 - (<-1>alpha t)^m)^{-1}.  The
    <-1> on the unpaired factor is forced by the morphism (L^{-m/2} maps to
    alpha^{-m} = <-1>^m alpha^m) and by the real specialization, which
    expands in powers of -it.
    """
    ring = gw_alpha_ring(field)
    minus_one = GwElement.unit(field, -1)
    hyper = GwAlphaElement.from_even(GwElement.hyperbolic(field))
    result = TruncatedSeries.one(ring, order)
    for m in range(1, order + 1):
        paired = {
            0: ring.one,
            m: -(alpha_power(field, m) * hyper),
            2 * m: minus_one * alpha_power(field, 2 * m),
        }
        result = result / TruncatedSeries.from_terms(ring, order, paired) ** (m // 2)
        if m % 2:
            unpaired = {0: ring.one, m: -(alpha_power(field, m) * minus_one)}
            result = result / TruncatedSeries.from_terms(ring, order, unpaired)
    return result


def macmahon(order: int) -> TruncatedSeries:
    """M(q) = prod (1 - q^n)^{-n}: the plane-partition counting series."""
    result = TruncatedSeries.one(INT_RING, order)
    for n in range(1, order + 1):
        factor = TruncatedSeries.from_terms(INT_RING, order, {0: 1, n: -1})
        result = result / factor ** n
    return result


def macmahon_symmetric(order: int) -> TruncatedSeries:
    """M^sym(q) = prod (1 - q^{2n-1})^{-1} (1 - q^{2n})^{-floor(n/2)}."""
    result = TruncatedSeries.one(INT_RING, order)
    for m in range(1, order + 1):
        # odd m = 2n - 1 has exponent 1, even m = 2n has exponent floor(n/2)
        factor = TruncatedSeries.from_terms(INT_RING, order, {0: 1, m: -1})
        result = result / factor ** (1 if m % 2 else m // 4)
    return result


class PartitionFunctionResult(Frozen):
    """The motivic series with its arithmetic, complex and real images."""

    __slots__ = __match_args__ = ("motivic", "arithmetic", "complex", "real")

    def __init__(self, motivic: TruncatedSeries, arithmetic: TruncatedSeries,
                 complex: TruncatedSeries, real: TruncatedSeries) -> None:
        self._assign(motivic, arithmetic, complex, real)


def partition_function(order: int, field: BaseField = QQ) -> PartitionFunctionResult:
    """The series over ``field``; the complex and real images do not depend on it."""
    motivic = z_motivic(order)
    arithmetic = motivic.map_coeffs(lambda c: chi_a1(c, field), gw_alpha_ring(field))
    # one chi_a1 over R per coefficient: chi_complex and chi_real are its rank and signature
    over_r = motivic.map_coeffs(lambda c: chi_a1(c, RR), gw_alpha_ring(RR))
    complex_series = over_r.map_coeffs(GwAlphaElement.numeric_complex, INT_RING)
    real_series = over_r.map_coeffs(GwAlphaElement.numeric_real, GAUSSIAN_RING)
    return PartitionFunctionResult(motivic, arithmetic, complex_series, real_series)


# -- the trace potential on matrix triples -------------------------------------


def _as_matrix(rows, n: int) -> tuple:
    rows = [tuple(json_rational(x, "matrix entry") for x in row) for row in rows]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ArithdtError("matrices must be square and of equal size")
    return tuple(rows)


class MatrixTriple(Frozen):
    """(A, B, C, v): three n x n rational matrices and a cyclic vector."""

    __slots__ = __match_args__ = ("a", "b", "c", "v")

    def __init__(self, a: tuple, b: tuple, c: tuple, v: tuple) -> None:
        self._assign(a, b, c, v)

    @classmethod
    def of(cls, a, b, c, v=None) -> "MatrixTriple":
        n = len(a)
        if v is None:
            v = [0] * n
        v = tuple(json_rational(x, "vector entry") for x in v)
        if len(v) != n:
            raise ArithdtError("vector length must match matrix size")
        return cls(_as_matrix(a, n), _as_matrix(b, n), _as_matrix(c, n), v)

    @property
    def size(self) -> int:
        return len(self.a)


def _matmul(x, y) -> tuple:
    n = len(x)
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _matsub(x, y) -> tuple:
    return tuple(tuple(a - b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _transpose(x) -> tuple:
    return tuple(tuple(row) for row in zip(*x))


def _trace(x) -> Fraction:
    return sum((x[i][i] for i in range(len(x))), Fraction(0))


def commutator(x, y) -> tuple:
    return _matsub(_matmul(x, y), _matmul(y, x))


def trace_potential(t: MatrixTriple) -> Fraction:
    """Tr([A, B] C)."""
    return _trace(_matmul(commutator(t.a, t.b), t.c))


def trace_potential_gradient(t: MatrixTriple) -> tuple:
    """Gradient in all 3n^2 matrix entries: ([B,C]^T, [C,A]^T, [A,B]^T).

    d/dX of Tr(XY) is Y^T entrywise, and the cyclic identities
    Tr([A,B]C) = Tr([B,C]A) = Tr([C,A]B) give all three blocks.
    """
    return (
        _transpose(commutator(t.b, t.c)),
        _transpose(commutator(t.c, t.a)),
        _transpose(commutator(t.a, t.b)),
    )


def gradient_vanishes(t: MatrixTriple) -> bool:
    zero = tuple(tuple(Fraction(0) for _ in range(t.size)) for _ in range(t.size))
    return all(g == zero for g in trace_potential_gradient(t))
