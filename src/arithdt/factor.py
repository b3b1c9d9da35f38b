"""Exact integer factorization: every integer the package factors goes through ``factorize``.

The primes up to 41 are divided out.  Each cofactor is proved prime by
Miller-Rabin to 13 bases (a proof below psi_13), or split as a perfect
power, or split by Pollard-Brent rho within a step budget; what cannot be
proved or split within these bounds is refused with an ArithdtError.
``is_prime`` decides without factoring.  ``fields.squarefree_part`` and
``fields.prime_factors`` import ``factorize`` on their first input other than
+-1, and the F_p constructor imports ``is_prime``, so a job that factors no
integer does not compile this module.
"""

from __future__ import annotations

from itertools import count
from math import gcd

from .errors import ArithdtError, brief


# Miller-Rabin to the first 13 prime bases proves primality below psi_13
# (Sorenson-Webster, Math. Comp. 2017); the same primes are divided out first.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981
# Pollard-Brent steps per factorization, over all seeds, with steps on long
# composites charged by their cost (_rho_split): a refusal comes within
# seconds, and seeded products of two 40-bit primes split inside it.
_RHO_STEPS = 1 << 22
# Longer numbers with no prime factor up to 41 are refused before Miller-Rabin:
# one base costs seconds at 13,000 bits, and rho peels each small factor off
# with a new test of the whole cofactor, so a refusal would take minutes.
_MAX_COFACTOR_BITS = 1024


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of |n| != 0, ascending in p, each p proved prime.

    Raises ArithdtError on a factor above psi_13 that no base proves composite,
    and when Pollard-Brent rho (Brent, BIT 1980) runs out of steps.
    """
    if n == 0:
        raise ArithdtError("0 has no prime factorization")
    out: dict[int, int] = {}
    rest = abs(n)
    for p in _SMALL_PRIMES:
        while rest % p == 0:
            rest //= p
            out[p] = out.get(p, 0) + 1
    stack, budget = [rest] if rest > 1 else [], _RHO_STEPS
    while stack:
        m = stack.pop()
        if _is_prime_cofactor(m):
            out[m] = out.get(m, 0) + 1
        elif power := _perfect_power(m):
            root, k = power
            stack += [root] * k
        else:
            d, budget = _rho_split(m, budget)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def _is_prime_cofactor(m: int) -> bool:
    """Whether m > 1, with no prime factor up to 41, is prime: a failed base proves it is not.

    Raises ArithdtError when m >= psi_13 passes every base, as no verdict is proved
    then, and at once when m has more than _MAX_COFACTOR_BITS bits.
    """
    if m < 43 * 43:
        return True
    if (bits := m.bit_length()) > _MAX_COFACTOR_BITS:
        raise ArithdtError(f"{brief(m)} has {bits} bits and no prime factor up to 41; numbers "
                           f"of more than {_MAX_COFACTOR_BITS} bits are neither factored nor tested "
                           "for primality")
    s = ((m - 1) & (1 - m)).bit_length() - 1
    for a in _SMALL_PRIMES:
        x = pow(a, (m - 1) >> s, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= _PSI_13:
        raise ArithdtError(f"{brief(m)} cannot be proved prime, as Miller-Rabin to 13 bases "
                           f"is a proof only below psi_13 = {_PSI_13}")
    return True


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, k) with r**k == m for the least prime k that has one, or None.

    m has no prime factor up to 41, so r > 2^5 and k < m.bit_length() / 5.
    """
    for k in range(2, m.bit_length() // 5 + 1):
        if is_prime(k):
            r = _integer_root(m, k)
            if r**k == m:
                return r, k
    return None


def _integer_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 1, by Newton's iteration on integers from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _rho_split(n: int, budget: int) -> tuple[int, int]:
    """A proper divisor of the odd composite n, and the steps left of budget.

    Brent's cycle search on x -> x^2 + c with seeds c = 1, 2, ...; gcds are
    batched over 128 steps, and a batch that hits n is retraced step by step.
    A step on n is charged the power of two at or below bits^2 / 90000, and
    at least one: about its cost against a short step, once schoolbook
    products outweigh the interpreter.  A power of two keeps the budget a
    whole number of the doubling rounds, and n under 425 bits pays one.
    """
    bits = n.bit_length()
    cost = 1 << (max(1, bits * bits // 90_000).bit_length() - 1)
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r * cost
            if budget < 0:
                raise ArithdtError(f"cannot factor the {bits}-bit composite {brief(n)} "
                                   f"within {_RHO_STEPS // cost} Pollard-Brent steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def is_prime(n: int) -> bool:
    """Whether n is prime, decided without factoring n; refused above psi_13 as in factorize."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _is_prime_cofactor(n)

