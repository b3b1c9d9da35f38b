"""The classification of symmetric forms: elimination and the complete invariants of GW(k).

``_diagonalize_rows`` is the one elimination kernel: ``gw.diagonalize_symmetric``
and ``ekl`` hand it a symmetric matrix as sparse rows.  ``gw_equal`` decides
whether two virtual forms define the same class in GW(k), using the complete
system of invariants of each field:

* C: rank;
* R: rank and signature;
* F_p: rank and discriminant;
* Q: rank, signature, discriminant and Hasse invariants at 2 and at every
  prime dividing a diagonal entry (the local symbol is +1 elsewhere).

A Hasse invariant is a product of local Hilbert symbols (``hasse_invariant``,
``hilbert_symbol``).  ``GwElement.gw_equal`` and ``gw.diagonalize_symmetric``
import this module when they are called, so a job that only adds and
multiplies classes does not compile it.
"""

from __future__ import annotations

from .errors import ArithdtError, SingularMatrixError, json_rational
from .factor import is_prime
from .fields import BaseField, legendre_symbol, linear_sum, prime_factors
from .gw import GwElement

INFINITE_PLACE = "inf"


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


def _split(x: GwElement) -> tuple[GwElement, GwElement]:
    """The genuine forms (pos, neg) with x = pos - neg."""
    pos = GwElement._make(x.field, [(r, m) for r, m in x.terms if m > 0])
    neg = GwElement._make(x.field, [(r, -m) for r, m in x.terms if m < 0])
    return pos, neg


def gw_equal(a: GwElement, b: GwElement) -> bool:
    """Whether a and b are the same class in GW(k).

    Decided on the difference a - b, split into two genuine forms
    whose complete invariants are compared (Witt cancellation makes this
    sound for the group completion).
    """
    if not isinstance(b, GwElement):
        raise ArithdtError("gw_equal compares GwElements")
    a._check_field(b)
    pos, neg = _split(a - b)
    if pos.rank() != neg.rank():
        return False
    kind = a.field.kind
    if kind == BaseField.COMPLEXES:
        return True
    if kind == BaseField.REALS:
        return pos.signature() == neg.signature()
    if kind == BaseField.FINITE:
        return pos.discriminant() == neg.discriminant()
    if pos.signature() != neg.signature():
        return False
    if pos.discriminant() != neg.discriminant():
        return False
    places = {2}
    for rep, _ in pos.terms + neg.terms:
        places.update(prime_factors(rep))
    return all(_hasse_of_terms(pos.terms, p) == _hasse_of_terms(neg.terms, p)
               for p in sorted(places))


def _p_adic_split(x: Fraction, p: int) -> tuple[int, int]:
    """(v_p(x), u) for x != 0: u = num * den with p divided out, a unit in the class of x / p^v."""
    u, v = x.numerator * x.denominator, 0
    while u % p == 0:
        u //= p
        v += 1
    return (-v if x.denominator % p == 0 else v), u


def hilbert_symbol(a, b, place) -> int:
    """The local Hilbert symbol (a, b) at a finite prime or at infinity."""
    a = json_rational(a, "a")
    b = json_rational(b, "b")
    if a == 0 or b == 0:
        raise ArithdtError("Hilbert symbols require nonzero arguments")
    if place == INFINITE_PLACE:
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(place, int) or not is_prime(place):
        raise ArithdtError(f"place must be a prime or {INFINITE_PLACE!r}, got {place!r}")
    p = place
    va, ua = _p_adic_split(a, p)
    vb, ub = _p_adic_split(b, p)
    if p == 2:
        ua, ub = ua % 8, ub % 8
        eps_a, eps_b = (ua - 1) // 2 % 2, (ub - 1) // 2 % 2
        om_a, om_b = (ua * ua - 1) // 8 % 2, (ub * ub - 1) // 8 % 2
        exponent = eps_a * eps_b + va * om_b + vb * om_a
        return -1 if exponent % 2 else 1
    sym = legendre_symbol(-1, p) if va * vb % 2 else 1
    sym *= legendre_symbol(ua, p) if vb % 2 else 1
    return sym * (legendre_symbol(ub, p) if va % 2 else 1)


def hasse_invariant(entries, place) -> int:
    """Hasse invariant of the diagonal form <a_1,...,a_n> at one place, equal entries grouped."""
    terms = linear_sum((json_rational(a, "diagonal entry"), 1) for a in entries)
    if 0 in terms:
        raise ArithdtError("Hilbert symbols require nonzero arguments")
    return _hasse_of_terms(tuple(terms.items()), place)


def _hasse_of_terms(terms, place) -> int:
    """Hasse invariant of the genuine form sum m_r <r>, multiplicities unexpanded.

    Of the pairs of diagonal entries, C(m_r, 2) are (r, r) and m_r * m_s are
    (r, s), so the invariant is prod_r (r,r)^C(m_r,2) * prod_{r<s} (r,s)^(m_r m_s).
    """
    sym = 1
    for i, (r, m) in enumerate(terms):
        if m * (m - 1) // 2 % 2:
            sym *= hilbert_symbol(r, r, place)
        for s, n in terms[i + 1:]:
            if m * n % 2:
                sym *= hilbert_symbol(r, s, place)
    return sym
