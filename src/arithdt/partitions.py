"""Brute-force plane-partition enumerators used as ground-truth oracles.

A plane partition of n is a stack of rows of positive integers, weakly
decreasing along rows and down columns, with entries summing to n; the
symmetric ones are those fixed by transposing the two base axes of the 3D
diagram.  Enumeration is exhaustive with monotone pruning and is intended
for n up to 14, which keeps the whole test suite in seconds.
"""

from __future__ import annotations

from .errors import ArithdtError
from .fields import Frozen

MAX_ENUMERATION = 14


def _rows_under(bound, max_sum):
    """Nonempty weakly decreasing rows fitting under bound with sum <= max_sum."""

    def extend(prefix, idx, left, cap):
        if prefix:
            yield tuple(prefix)
        if idx >= len(bound):
            return
        top = min(bound[idx], cap, left)
        for value in range(top, 0, -1):
            prefix.append(value)
            yield from extend(prefix, idx + 1, left - value, value)
            prefix.pop()

    yield from extend([], 0, max_sum, max_sum)


def _stacks_under(bound, remaining):
    if remaining == 0:
        yield ()
        return
    for row in _rows_under(bound, remaining):
        for rest in _stacks_under(row, remaining - sum(row)):
            yield (row,) + rest


def plane_partitions(n: int):
    """All plane partitions of n, as tuples of rows."""
    if n < 0:
        raise ArithdtError("n must be nonnegative")
    if n > MAX_ENUMERATION:
        raise ArithdtError(f"enumeration is capped at n = {MAX_ENUMERATION}")
    if n == 0:
        yield ()
        return
    yield from _stacks_under((n,) * n, n)


def is_transpose_symmetric(pp) -> bool:
    cells = {}
    for i, row in enumerate(pp):
        for j, value in enumerate(row):
            cells[(i, j)] = value
    return all(cells.get((j, i)) == v for (i, j), v in cells.items())


def count_plane_partitions(n: int) -> int:
    return sum(1 for _ in plane_partitions(n))


def count_symmetric_plane_partitions(n: int) -> int:
    return sum(1 for pp in plane_partitions(n) if is_transpose_symmetric(pp))


class VerifyReport(Frozen):
    """Outcome of checking a generating series against the enumerators."""

    __slots__ = __match_args__ = ("order", "agrees", "first_mismatch")

    def __init__(self, order: int, agrees: bool, first_mismatch: tuple | None) -> None:
        self._assign(order, agrees, first_mismatch)

    def __str__(self) -> str:
        if self.agrees:
            return f"agreement through order {self.order}"
        n, series_value, count = self.first_mismatch
        return f"mismatch at n={n}: series {series_value} vs enumeration {count}"


def _verify(order: int, series_to, count) -> VerifyReport:
    """Compare the coefficients of series_to(order) with count(n) for n <= order."""
    if order < 0:
        raise ArithdtError("order must be nonnegative")
    if order > 12:
        raise ArithdtError("verification is capped at order 12")
    series = series_to(max(order, 1))
    for n in range(order + 1):
        counted = count(n)
        if series.coeffs[n] != counted:
            return VerifyReport(order, False, (n, series.coeffs[n], counted))
    return VerifyReport(order, True, None)


def verify_macmahon(order: int) -> VerifyReport:
    """Compare the MacMahon series coefficients with exhaustive counts."""
    from .dt import macmahon

    return _verify(order, macmahon, count_plane_partitions)


def verify_symmetric(order: int) -> VerifyReport:
    """Compare the symmetric MacMahon series with exhaustive symmetric counts."""
    from .dt import macmahon_symmetric

    return _verify(order, macmahon_symmetric, count_symmetric_plane_partitions)
