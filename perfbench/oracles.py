"""Independent answers the benchmark checks the program against.

Nothing here imports the program under test: the series come from integer
recurrences, square classes from factorizations known by construction, and
the "only the origin is a common zero" test from exact resultants.
"""

from __future__ import annotations

from fractions import Fraction

# -- plane-partition series --------------------------------------------------


def euler_product_coeffs(exponents: dict[int, int], order: int) -> list[int]:
    """Coefficients of prod_m (1 - q^m)^(-e_m) up to q^order.

    Uses n a_n = sum_k (sum_{m | k} m e_m) a_{n-k}, the logarithmic
    derivative of the product.
    """
    weight = [0] * (order + 1)
    for m, e in exponents.items():
        for k in range(m, order + 1, m):
            weight[k] += m * e
    a = [1] + [0] * order
    for n in range(1, order + 1):
        total = sum(weight[k] * a[n - k] for k in range(1, n + 1))
        a[n] = total // n
    return a


def plane_partition_counts(order: int) -> list[int]:
    """MacMahon: prod (1 - q^m)^(-m)."""
    return euler_product_coeffs({m: m for m in range(1, order + 1)}, order)


def symmetric_plane_partition_counts(order: int) -> list[int]:
    """prod (1 - q^(2n-1))^(-1) (1 - q^(2n))^(-floor(n/2))."""
    exps = {}
    for m in range(1, order + 1):
        exps[m] = 1 if m % 2 else (m // 2) // 2
    return euler_product_coeffs(exps, order)


def dt_complex_coeffs(order: int) -> list[int]:
    """Coefficients of M(-t), the complex specialization."""
    return [(-1) ** n * c for n, c in enumerate(plane_partition_counts(order))]


def dt_real_coeffs(order: int) -> list[tuple[int, int]]:
    """Coefficients of M^sym(-it) as (re, im) pairs."""
    out = []
    phase = (1, 0)
    for c in symmetric_plane_partition_counts(order):
        out.append((c * phase[0], c * phase[1]))
        phase = (phase[1], -phase[0])  # multiply by -i
    return out


def gaussian_text(re: int, im: int) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{im:+}i"


# -- primes and square classes with known factorizations ----------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_in(rng, lo: int, hi: int) -> int:
    """A uniformly drawn prime in [lo, hi)."""
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


class Entry:
    """A nonzero integer, with its factorization when it is known by construction."""

    __slots__ = ("value", "factors")

    def __init__(self, value: int, factors: dict[int, int] | None = None):
        self.value = value
        self.factors = factors

    @classmethod
    def of_factors(cls, sign: int, factors: dict[int, int]) -> "Entry":
        value = sign
        for p, e in factors.items():
            value *= p**e
        return cls(value, {p: e for p, e in factors.items() if e})

    def times(self, other: "Entry") -> "Entry":
        if self.factors is None or other.factors is None:
            return Entry(self.value * other.value)
        merged = dict(self.factors)
        for p, e in other.factors.items():
            merged[p] = merged.get(p, 0) + e
        return Entry(self.value * other.value, merged)

    def rep(self, field: str) -> int:
        """Canonical square-class representative over Q, R or F_p."""
        sign = 1 if self.value > 0 else -1
        if field == "Q":
            out = sign
            for p, e in self.factors.items():
                if e % 2:
                    out *= p
            return out
        if field == "R":
            return sign
        p = int(field[1:])
        if pow(self.value % p, (p - 1) // 2, p) == 1:
            return 1
        return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


def gw_terms(summands, field: str) -> list[list[int]]:
    """Canonical GwElement terms of sum(mult * <entry>), as in its JSON."""
    acc: dict[int, int] = {}
    for entry, mult in summands:
        r = entry.rep(field)
        acc[r] = acc.get(r, 0) + mult
    return [[r, m] for r, m in sorted(acc.items(), key=lambda t: (abs(t[0]), t[0] < 0)) if m]


def render_gw(terms) -> str:
    if not terms:
        return "0"
    out = []
    for idx, (r, m) in enumerate(terms):
        body = f"<{r}>" if abs(m) == 1 else f"{abs(m)}*<{r}>"
        if idx == 0:
            out.append(body if m > 0 else f"-{body}")
        else:
            out.append(f"{'-' if m < 0 else '+'} {body}")
    return " ".join(out)


# -- zero sets of homogeneous forms -------------------------------------------


def determinant(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


def sylvester_resultant(a, b) -> Fraction:
    """Resultant of two polynomials given by coefficients, highest first.

    For two binary forms of degree d written as coefficient lists of
    x^(d-i) y^i, this is the homogeneous resultant: zero exactly when the
    forms share a zero other than the origin.
    """
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = [[0] * i + list(a) + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + list(b) + [0] * (size - n - 1 - i) for i in range(m)]
    return determinant(rows)


def binary_forms_coprime(f: dict, g: dict, d: int) -> bool:
    """True when two degree-d forms in (x, y) meet only at the origin."""
    a = [f.get((d - i, i), 0) for i in range(d + 1)]
    b = [g.get((d - i, i), 0) for i in range(d + 1)]
    return sylvester_resultant(a, b) != 0


def _poly_in_y(form: dict, d: int, x: int) -> list:
    """f(x, y, 1) as a polynomial in y, highest power first."""
    coeffs = [Fraction(0)] * (d + 1)
    for (ex, ey, _ez), c in form.items():
        coeffs[d - ey] += c * x**ex
    return coeffs


def _interpolate(xs, ys) -> list:
    """Coefficients (lowest first) of the polynomial through the points."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xs[j] * basis[k + 1]
            denom *= xs[i] - xs[j]
        for k in range(n):
            coeffs[k] += ys[i] * basis[k] / denom
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_gcd_degree(a: list, b: list) -> int:
    """Degree of gcd over Q of two polynomials given lowest power first."""
    a, b = list(a), list(b)
    while b:
        while a and len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k in range(len(b)):
                a[shift + k] -= f * b[k]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def ternary_forms_meet_only_at_origin(forms: list[dict], d: int) -> bool:
    """Sufficient test that three degree-d forms in (x, y, z) share no zero
    besides the origin.  Every form must have a nonzero y^d coefficient.

    On z = 0 two of the forms already have no common zero (binary
    resultant).  On z = 1 the resultants in y of (f1, f2) and (f1, f3) are
    polynomials in x with no common root.  A draw failing the test is
    rejected, so the test may be conservative but never lets a bad map by.
    """
    if any(form.get((0, d, 0), 0) == 0 for form in forms):
        return False
    on_infinity = [{(ex, ey): c for (ex, ey, ez), c in f.items() if ez == 0} for f in forms]
    if not any(
        binary_forms_coprime(on_infinity[i], on_infinity[j], d)
        for i, j in ((0, 1), (0, 2), (1, 2))
    ):
        return False
    xs = list(range(d * d + 1))
    res = []
    for other in (forms[1], forms[2]):
        ys = [sylvester_resultant(_poly_in_y(forms[0], d, x), _poly_in_y(other, d, x)) for x in xs]
        res.append(_interpolate(xs, ys))
    if not res[0] or not res[1]:
        return False
    return _poly_gcd_degree(res[0], res[1]) == 0


# -- nearby classes in Z[u, 1/u] (u = L^(1/2)) ---------------------------------


def upoly_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def upoly_add(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def nearby_sum(strata) -> dict:
    """S = sum over strata of (1 - L)^(|I| - 1) [E_I], with L = u^2."""
    total: dict[int, int] = {}
    one_minus_l = {0: 1, 2: -1}
    for size, cls in strata:
        weight = {0: 1}
        for _ in range(size - 1):
            weight = upoly_mul(weight, one_minus_l)
        total = upoly_add(total, upoly_mul(weight, cls))
    return total


def euler_images(cls: dict) -> tuple[int, tuple[int, int], list, list]:
    """chi_complex (u -> -1), chi_real (u -> i) and chi_a1 (u -> alpha) over Q.

    chi_a1 is returned as the even and odd GwElement term lists, using
    alpha^2 = <-1>.
    """
    complex_value = sum(c * (-1) ** (e % 2) for e, c in cls.items())
    re = im = 0
    for e, c in cls.items():
        quarter = e % 4  # i^e
        if quarter == 0:
            re += c
        elif quarter == 1:
            im += c
        elif quarter == 2:
            re -= c
        else:
            im -= c
    parts = ({}, {})
    for e, c in cls.items():
        j = e // 2
        rep = -1 if j % 2 else 1
        parts[e % 2][rep] = parts[e % 2].get(rep, 0) + c
    a1 = [[[r, m] for r, m in sorted(p.items(), reverse=True) if m] for p in parts]
    return complex_value, (re, im), a1[0], a1[1]
