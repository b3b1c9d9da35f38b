"""factor.factorize and its views against trial division, with the refusals past psi_13.

The four trial-division loops below are the oracle: plain, slow and
obviously right wherever they finish.  ``fields.squarefree_part`` and
``fields.prime_factors`` answer +-1 (and 0) without loading ``factor``; the
``factor``-based versions they replaced are kept here as their oracles.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import arithdt
from arithdt import factor
from arithdt.errors import ArithdtError
from arithdt.factor import factorize, is_prime
from arithdt.fields import binary_power, prime_factors, squarefree_part
from arithdt.motivic import MotivicClass

PSI_13 = 3317044064679887385961981
M89 = 2**89 - 1  # a Mersenne prime above psi_13
# primes of 40, 61 and 80 bits; P80 and Q80 are the first primes past 2^80 and 2^80 + 2^70
P40, M61, P80, Q80 = 1099511627689, 2**61 - 1, 1208925819614629174706189, 1210106411235346586009689
# primes of 501 bits, the first past 2^500 and past 2^500 + 2^490; rho does not split their product
P500, Q500 = 2**500 + 55, 2**500 + 2**490 + 191


# -- the trial-division oracle ------------------------------------------------


def oracle_is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def oracle_squarefree_part(n):
    sign = 1 if n > 0 else -1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
        d += 1 if d == 2 else 2
    return sign * out * n


def oracle_prime_factors(n):
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def oracle_factorize(n):
    out = {}
    n = abs(n)
    for p in oracle_prime_factors(n):
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    return out


def factor_squarefree_part(n):
    """The view of ``factorize`` that ``fields.squarefree_part`` was, with its refusal of 0."""
    if n == 0:
        raise ArithdtError("0 has no square class")
    return (1 if n > 0 else -1) * math.prod(p for p, e in factorize(n).items() if e % 2)


def factor_prime_factors(n):
    """The view of ``factorize`` that ``fields.prime_factors`` was."""
    return list(factorize(n)) if n else []


def _seeded_inputs():
    """2,400 signed n != 0 with |n| < 10^9, log-uniform in size so small n are well covered."""
    rng = random.Random(0)
    return [rng.randrange(1, 10 ** rng.randint(1, 9)) * rng.choice((1, -1)) for _ in range(2400)]


EDGE = [1, -1, 2, -2, 3, 41, 43, 53**2, 43**2, 43 * 47, 41 * 43, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23,
        561, 41041, 3215031751, -3215031751, 2**30, 3**18, 999999937, -999999937]


def test_views_match_trial_division():
    for n in EDGE + _seeded_inputs():
        f = factorize(n)
        assert f == oracle_factorize(n), n
        assert list(f) == sorted(f), n
        assert is_prime(n) == oracle_is_prime(n), n
        assert squarefree_part(n) == oracle_squarefree_part(n), n
        assert prime_factors(n) == oracle_prime_factors(n), n


def _outcome(fn, n):
    """What fn(n) gives: its value, or the type and message of what it raises."""
    try:
        return fn(n)
    except ArithdtError as exc:
        return type(exc), str(exc)


def _semiprimes():
    rng = random.Random(34)
    primes = [p for p in range(10**5, 10**5 + 2000) if oracle_is_prime(p)] + [P40, M61]
    return [rng.choice(primes) * rng.choice(primes) * rng.choice((1, -1)) for _ in range(60)]


ORACLE_INPUTS = {
    "units": [0, 1, -1],
    "squares": [4, -4, 9, 49, 43**2, P40**2, -(M61**2), (2 * 3 * 5 * 7) ** 2],
    "prime-powers": [2**30, -(3**19), 7 * P40**3, M61**5, 2 * P80**3, 41**7],
    "semiprimes": _semiprimes(),
    # refused: a factor past psi_13, psi_13 itself, and cofactors past 1024 bits
    "refusals": [M89, -3 * M89, PSI_13, M61**17, 10**3999 + 1, P500 * Q500 * P40],
}


@pytest.mark.parametrize("inputs", ORACLE_INPUTS.values(), ids=ORACLE_INPUTS.keys())
def test_fields_views_answer_as_the_factor_views(inputs):
    for n in inputs:
        assert _outcome(squarefree_part, n) == _outcome(factor_squarefree_part, n), n
        assert _outcome(prime_factors, n) == _outcome(factor_prime_factors, n), n


def test_fields_views_refuse_as_the_factor_views_when_rho_runs_out(monkeypatch):
    monkeypatch.setattr(factor, "_RHO_STEPS", 1 << 12)
    for n in (M61 * P80, -M61 * P80 * 9):
        refusal = _outcome(factor_squarefree_part, n)
        assert refusal[0] is ArithdtError and refusal[1].startswith("cannot factor the 141-bit")
        assert _outcome(squarefree_part, n) == refusal
        assert _outcome(prime_factors, n) == _outcome(factor_prime_factors, n) == refusal


def test_every_small_n_matches_trial_division():
    for n in range(-3000, 3001):
        if n:
            assert factorize(n) == oracle_factorize(n), n
            assert is_prime(n) == oracle_is_prime(n), n


def test_zero():
    with pytest.raises(ArithdtError):
        factorize(0)
    with pytest.raises(ArithdtError):
        squarefree_part(0)
    assert not is_prime(0)
    assert prime_factors(0) == oracle_prime_factors(0) == []


def test_pseudoprimes_are_split():
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    assert factorize(3215031751) == {151: 1, 751: 1, 28351: 1}
    assert factorize(561) == {3: 1, 11: 1, 17: 1}
    assert factorize(41041) == {7: 1, 11: 1, 13: 1, 41: 1}
    assert not is_prime(3215031751)


def test_large_inputs_answer_as_trial_division():
    for n in (2**100 * 3, 1009**10, 10**30, -(2**64) * 1009**3):
        assert factorize(n) == oracle_factorize(n)
    assert squarefree_part(1009**10 * 6) == 6


def test_balanced_semiprimes_split():
    # a 14-digit semiprime of the gw-ring kind, and a product of two ~40-bit primes
    for p, q in ((9999991, 9999973), (1099511627689, 1099511627791)):
        assert oracle_is_prime(p) and oracle_is_prime(q)
        t = time.perf_counter()
        assert factorize(p * q) == {p: 1, q: 1}
        assert time.perf_counter() - t < 3.0
        assert squarefree_part(p * q * p) == q


def test_products_above_psi_13_of_smaller_primes_answer():
    n = (2**61 - 1) * (2**31 - 1) * 43**2
    assert n > PSI_13
    assert factorize(n) == {43: 2, 2**31 - 1: 1, 2**61 - 1: 1}


@pytest.mark.parametrize("n", [M89, 3 * M89, PSI_13], ids=["M89", "3*M89", "psi13"])
def test_factors_above_psi_13_are_refused(n):
    # PSI_13 itself is composite but passes all 13 bases, so it cannot be decided either
    with pytest.raises(ArithdtError, match="psi_13"):
        factorize(n)
    if n % 3:
        with pytest.raises(ArithdtError, match="psi_13"):
            is_prime(n)
    else:
        # is_prime does not factor: the divisor 3 proves 3 * M89 composite
        assert not is_prime(n)


def test_rho_budget_is_a_refusal(monkeypatch):
    # M61 * P80 has 141 bits, below 425, so each step costs one unit of the whole budget
    monkeypatch.setattr(factor, "_RHO_STEPS", 1 << 12)
    with pytest.raises(ArithdtError, match="within 4096 Pollard-Brent steps"):
        factorize(M61 * P80)


PRIME_POWERS = {"P40^2": P40**2, "7*P40^3": 7 * P40**3, "M61^2": M61**2, "3*M61^2": 3 * M61**2,
                "M61^5": M61**5, "P80^2": P80**2, "2*P80^3": 2 * P80**3, "(P40*M61)^2": (P40 * M61) ** 2,
                "P40^2*M61^3": P40**2 * M61**3}


@pytest.mark.parametrize("n", PRIME_POWERS.values(), ids=PRIME_POWERS.keys())
def test_prime_powers_answer_as_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert factorize(n) == sympy.factorint(n)


def test_is_prime_does_not_factor(monkeypatch):
    # a failed Miller-Rabin base proves p * q composite, with no rho step taken
    monkeypatch.setattr(factor, "_rho_split", None)
    assert not is_prime(P80 * Q80)
    assert not is_prime(M61**2)
    assert is_prime(P80)


def test_binary_power():
    for n in range(70):
        assert binary_power(3, n, 1) == 3**n
    # no square past the top bit: a generator class cannot be squared, but its first power exists
    g = MotivicClass.generator("SpecC")
    assert g**1 == g
    assert g**0 == MotivicClass.one()


# -- whole CLI processes ------------------------------------------------------

N19 = 1000000016000000063  # 1000000007 * 1000000009


def _cli(*argv):
    src = Path(arithdt.__file__).resolve().parent.parent
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "arithdt", *argv],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return proc, time.perf_counter() - t


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["gw", "--op", "rank", "--a", f"<{N19}>"], "1"),
        (["gw", "--op", "equal", "--a", f"<{N19}> + <-{N19}>", "--b", "H"], "true"),
        # 1000000007 = 3 mod 4 divides N19 once, so the Hasse invariants differ there
        (["gw", "--op", "equal", "--a", f"2*<{N19}>", "--b", "2*<1>"], "false"),
        (["gw", "--op", "discriminant", "--a", f"<{N19}> + <3>"], f"<{3 * N19}>"),
    ],
    ids=["rank", "equal-true", "equal-false", "discriminant"],
)
def test_nineteen_digit_jobs_answer_within_a_second(argv, expected):
    proc, seconds = _cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected
    assert seconds < 1.0


@pytest.mark.parametrize(
    "argv,code,stdout,stderr",
    [
        # 3 * (2^61 - 1)^2, whose square class is <3>
        (["gw", "--op", "rank", "--a", f"<{3 * M61**2}>"], 0, "1\n", ""),
        (["gw", "--op", "rank", "--a", "<1>", "--field", f"F{P80 * Q80}"],
         1, "", "error: finite base fields require an odd prime p\n"),
    ],
    ids=["prime-power", "composite-field"],
)
def test_prime_powers_and_composite_fields_answer_at_once(argv, code, stdout, stderr):
    proc, seconds = _cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)
    assert seconds < 1.0


@pytest.mark.parametrize(
    "argv",
    [["gw", "--op", "rank", "--a", f"<{M89}>"], ["gw", "--op", "rank", "--a", "<1>", "--field", f"F{M89}"]],
    ids=["class", "field"],
)
def test_unprovable_primes_exit_one_with_one_line(argv):
    proc, seconds = _cli(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert seconds < 5.0


def test_long_composite_is_refused_in_seconds():
    # a rho step on 1001 bits costs about eleven short ones and is charged eight;
    # a budget that counted steps alone took 14-24 s to refuse it
    proc, seconds = _cli("gw", "--op", "rank", "--a", f"<{P500 * Q500}>")
    assert (proc.returncode, proc.stdout) == (1, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot factor the 1001-bit composite")
    assert "Pollard-Brent" in lines[0]
    assert seconds < 5.0


def test_very_long_cofactor_is_refused_at_once():
    # 10^3999 + 1 has 13,275 bits after 7, 11 and 13: one Miller-Rabin base took 5 s, and
    # rho peeled three more small factors, each followed by a new test, for 33.5 s in all
    proc, seconds = _cli("gw", "--op", "rank", "--a", f"<{10**3999 + 1}>")
    assert (proc.returncode, proc.stdout) == (1, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "has 13275 bits" in lines[0] and len(lines[0]) < 200
    assert seconds < 5.0


def test_cofactors_past_1024_bits_are_refused():
    assert factorize(M61**16) == {M61: 16}  # 976 bits
    with pytest.raises(ArithdtError, match="more than 1024 bits"):
        factorize(M61**17)  # 1037 bits
    with pytest.raises(ArithdtError, match="more than 1024 bits"):
        is_prime(P500 * Q500 * P40)
