"""The elimination kernel: the GW class of a symmetric matrix given as sparse rows.

``_diagonalize_rows`` is the one kernel behind ``gw.diagonalize_symmetric``
and ``ekl.ekl_class``.  It has a module of its own so that a job which
eliminates (``ekl``, ``gw --op diagonalize``) compiles no form classifier,
and a job which classifies forms compiles no kernel.
"""

from __future__ import annotations

from .errors import ArithdtError, SingularMatrixError
from .fields import BaseField
from .gw import GwElement


def _diagonalize_rows(rows: list, field: BaseField) -> GwElement:
    """GW class of a symmetric matrix given as {column: nonzero Fraction} per row.

    Symmetric congruence reduction: the first nonzero diagonal entry is
    used as a pivot; when every remaining diagonal entry vanishes, the
    lexicographically first nonzero off-diagonal pair is consumed as a
    hyperbolic plane.  Deterministic by construction.

    Each Schur-complement update walks only the nonzeros of the pivot rows
    (column a is read off row a, by symmetry); entries that cancel are
    dropped.  A block-sparse matrix, such as a graded Gram matrix, is thus
    reduced block by block, with the pivots of the dense reduction.  The
    row dicts are consumed.
    """
    from fractions import Fraction

    for i, row in enumerate(rows):
        for j, x in row.items():
            if rows[j].get(i) != x:
                raise ArithdtError("matrix is not symmetric")

    entries: list[Fraction] = []
    active = list(range(len(rows)))
    while active:
        pivot = next((i for i in active if i in rows[i]), None)
        if pivot is not None:
            # 1x1 pivot d = m[p][p]: m[k][l] -= m[k][p] * m[p][l] / d
            d = rows[pivot][pivot]
            terms = [(pivot, pivot)]
            entries.append(d)
            active.remove(pivot)
        else:
            # the rows of active indices hold only active columns
            block = next(((i, j) for i in active for j in sorted(rows[i]) if j > i), None)
            if block is None:
                raise SingularMatrixError("matrix is singular")
            # hyperbolic pivot [[0, d], [d, 0]]:
            # m[k][l] -= (m[k][j] * m[i][l] + m[k][i] * m[j][l]) / d
            i, j = block
            d = rows[i][j]
            terms = [(j, i), (i, j)]
            entries.extend([Fraction(1), Fraction(-1)])
            active.remove(i)
            active.remove(j)
        # Schur complement on the active block; the pivot rows and columns are dropped
        pivots = {a for a, _ in terms}
        for a, b in terms:
            pivot_row = [(l, x) for l, x in rows[b].items() if l not in pivots]
            for k, y in rows[a].items():
                if k in pivots:
                    continue
                c = y / d
                row = rows[k]
                del row[a]
                for l, x in pivot_row:
                    value = row.get(l, 0) - c * x
                    if value:
                        row[l] = value
                    else:
                        del row[l]

    return GwElement.from_diagonal(field, entries)
