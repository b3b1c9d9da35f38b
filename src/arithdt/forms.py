"""The classification of symmetric forms: the complete invariants of GW(k).

``gw_equal`` decides whether two virtual forms define the same class in
GW(k), using the complete system of invariants of each field:

* C: rank;
* R: rank and signature;
* F_p: rank and discriminant;
* Q: rank, signature, discriminant and Hasse invariants at 2 and at every
  prime dividing a diagonal entry (the local symbol is +1 elsewhere).

A Hasse invariant is a product of local Hilbert symbols (``hasse_invariant``,
``hilbert_symbol``).  ``GwElement.gw_equal`` imports this module when it is
called, so a job that only adds, multiplies or diagonalizes classes does not
compile it; the elimination kernel lives in ``elimination``.
"""

from __future__ import annotations

from .errors import ArithdtError, json_rational
from .factor import is_prime
from .fields import BaseField, linear_sum, prime_factors
from .gw import GwElement
from .squares import legendre_symbol

INFINITE_PLACE = "inf"


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
