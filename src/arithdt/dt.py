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
the truncated result is exact.

Each series has one route, and a caller pays only for the one it asks for.
With u = L^{1/2} and t = T u, Z(T u) has coefficients in Z[q], q = u^2, that
one integer recurrence computes at an integer q, dividing no series: at u = 1
it is the MacMahon series M(T), at u = i the symmetric series M^sym(T), and
at q = 2^b it packs Z(t) into base-2^b digits (Kronecker substitution; see
z_motivic).  The complex series M(-t) is read off u = 1 with the sign
(-1)^n, the real series (-i)^n M^sym_n in Z[i] off u = i, and the arithmetic
series, the chi_a1 image of Z(t), off both (see z_arithmetic): no motivic
class is made for any of them.  ``motivic`` is imported only by z_motivic and
the quadratic-form modules only by z_arithmetic, so a complex job needs neither.

The moduli side, the trace potential on matrix triples, lives in
``potential``: no ``dt-a3`` job loads it (``JOBS``, tests/test_package.py).
"""

from __future__ import annotations

from .fields import BaseField, Frozen, QQ
from .series import INT_RING, TruncatedSeries


def _z_at(order: int, q: int) -> list:
    """The coefficients of Z(T u) over Z, u = L^{1/2} evaluated with u^2 = ``q``.

    Each factor is 1 - q^{k+2} T^m, so T d/dT log Z(T u) = sum_n B_n T^n with
    B_n = sum_{m r = n} m (q^{2r} + ... + q^{(m+1)r}), and n Y_n = sum_{k<=n} B_k Y_{n-k}
    from Y_0 = 1.  That is an identity in Z[q], so at an integer q it divides exactly.
    """
    b = [0] * (order + 1)
    for m in range(1, order + 1):
        for r in range(1, order // m + 1):
            b[m * r] += m * sum(q ** (j * r) for j in range(2, m + 2))
    y = [1]
    for n in range(1, order + 1):
        y.append(sum(b[k] * y[n - k] for k in range(1, n + 1)) // n)
    return y


def z_motivic(order: int) -> TruncatedSeries:
    """Motivic partition function, coefficients in Z[L^{1/2}, L^{-1/2}].

    The coefficient of T^n in Z(T u) is u^n z_n(u), where z_n is the
    coefficient of t^n in Z(t).  Every inverted factor 1 / (1 - u^{2k+4} T^m)
    has coefficients 0 and 1, so u^n z_n is a polynomial in q = u^2 of degree
    <= 2n, with coefficients >= 0 that add up to its value at u = 1, the
    MacMahon number M_n < 2^b with b = max M_n .bit_length().  Evaluation at
    an integer is a ring morphism, so at q = 2^b the coefficient of T^n is an
    integer whose base-2^b digits, read with shifts and masks, are the
    coefficients of u^{2s-n} in z_n, s = 0, ..., 2n: no digit carries.
    """
    from .motivic import MOTIVIC_RING, MotivicClass

    b = max(_z_at(order, 1)).bit_length()
    mask = (1 << b) - 1
    coeffs = []
    for n, packed in enumerate(_z_at(order, 1 << b)):
        digits = ((2 * s - n, packed >> s * b & mask) for s in range(2 * n + 1))
        coeffs.append(MotivicClass._make(tuple((e, d) for e, d in digits if d)))
    return TruncatedSeries(MOTIVIC_RING, order, coeffs)


def z_arithmetic(order: int, field: BaseField = QQ) -> TruncatedSeries:
    """Quadratic-form refinement, coefficients in GW(k)(alpha): the termwise
    chi_a1 image of z_motivic over ``field``, u = L^{1/2} sent to alpha.

    As alpha^4 = 1 the image sums the u-terms of z_n by exponent mod 4, sums fixed
    by z_n(+-1) = (+-1)^n M_n and z_n(+-i) = (-+i)^n S_n, S = M^sym.  Coefficient n
    is alpha^{-n} ((M_n + S_n)/2 <1> + (M_n - S_n)/2 <-1>): the plane partitions
    that are not transpose-symmetric come in pairs, so both halves are integers."""
    from .gwalpha import _alpha_sum, gw_alpha_ring

    counts = enumerate(zip(macmahon(order).coeffs, macmahon_symmetric(order).coeffs))
    return TruncatedSeries(gw_alpha_ring(field), order, [
        _alpha_sum(((-n, (m + s) // 2), (2 - n, (m - s) // 2)), field) for n, (m, s) in counts
    ])


def z_complex(order: int) -> TruncatedSeries:
    """chi_complex of Z(t) termwise, the rank of the arithmetic series with alpha
    sent to -1: M(-t), whose coefficient of t^n is (-1)^n M_n."""
    return TruncatedSeries(INT_RING, order, [
        (-1) ** n * c for n, c in enumerate(macmahon(order).coeffs)
    ])


def z_real(order: int) -> TruncatedSeries:
    """chi_real of Z(t) termwise, the signature of the arithmetic series with
    alpha sent to i: M^sym(-it), whose coefficient of t^n is (-i)^n M^sym_n."""
    from .gaussian import GAUSSIAN_RING, GaussianInteger

    minus_i = GaussianInteger(0, -1)
    return TruncatedSeries(GAUSSIAN_RING, order, [
        minus_i ** (n % 4) * c for n, c in enumerate(macmahon_symmetric(order).coeffs)
    ])


def macmahon(order: int) -> TruncatedSeries:
    """M(q) = prod (1 - q^n)^{-n}, the plane-partition series: Z(T u) at u = 1."""
    return TruncatedSeries(INT_RING, order, _z_at(order, 1))


def macmahon_symmetric(order: int) -> TruncatedSeries:
    """M^sym(q) = prod (1 - q^{2n-1})^{-1} (1 - q^{2n})^{-floor(n/2)}: Z(T u) at u = i."""
    return TruncatedSeries(INT_RING, order, _z_at(order, -1))


class PartitionFunctionResult(Frozen):
    """The motivic series with its arithmetic, complex and real images."""

    __slots__ = __match_args__ = ("motivic", "arithmetic", "complex", "real")

    def __init__(self, motivic: TruncatedSeries, arithmetic: TruncatedSeries,
                 complex: TruncatedSeries, real: TruncatedSeries) -> None:
        self._assign(motivic, arithmetic, complex, real)


def partition_function(order: int, field: BaseField = QQ) -> PartitionFunctionResult:
    """The four series, each by its own route; only the arithmetic one depends on ``field``."""
    return PartitionFunctionResult(
        z_motivic(order), z_arithmetic(order, field), z_complex(order), z_real(order)
    )
