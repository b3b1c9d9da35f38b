"""The trace potential on matrix triples, the moduli side of the DT series.

The Hilbert scheme of points of A^3 is the critical locus of
(A, B, C, v) -> Tr([A, B] C) on a space of matrix triples; the gradient
identity that drives that description is implemented and tested here.  No
``dt-a3`` job runs this code, so it lives apart from ``dt``.
"""

from __future__ import annotations

from .errors import ArithdtError, json_rational
from .fields import Frozen


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
    from fractions import Fraction

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
    return all(x == 0 for g in trace_potential_gradient(t) for row in g for x in row)
