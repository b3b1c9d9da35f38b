"""Genus-bound bookkeeping and the refined fiber-integral comparisons."""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import arithdt
from arithdt import castelnuovo
from arithdt.castelnuovo import (
    CastelnuovoInput,
    castelnuovo_bound,
    fiber_dimension,
    gv_arithmetic_direct,
    gv_closed_form,
    gv_compare,
    gv_virtual_class_motivic,
)
from arithdt.errors import ArithdtError, NonIntegralCoefficientError
from arithdt.fields import CC, QQ, RR, finite_field
from arithdt.gw import GwElement
from arithdt.gwalpha import GwAlphaElement
from arithdt.motivic import (
    L,
    MOT_ONE,
    MotivicClass,
    chi_a1,
    chi_complex,
    projective_space_class,
)

ALPHA = GwAlphaElement.alpha(QQ)
H = GwElement.hyperbolic(QQ)


def test_bound_values():
    assert castelnuovo_bound(5) == 6
    assert castelnuovo_bound(10) == 16
    assert castelnuovo_bound(1) == Fraction(8, 5)  # non-integral away from d = 5m
    with pytest.raises(ArithdtError):
        castelnuovo_bound(0)


def test_fiber_dimensions():
    assert [fiber_dimension(m) for m in range(1, 9)] == [3, 9, 19, 34, 54, 79, 109, 144]
    with pytest.raises(ArithdtError):
        fiber_dimension(0)


def test_castelnuovo_input_derivation():
    ci = CastelnuovoInput.of(2)
    assert (ci.d, ci.genus, ci.holomorphic_euler, ci.fiber_dim) == (10, 16, -15, 9)
    ci = CastelnuovoInput.of(1)
    assert (ci.d, ci.genus, ci.fiber_dim) == (5, 6, 3)


def test_motivic_class_m1():
    expected = (
        MotivicClass.u_power(7)
        * projective_space_class(3)
        * projective_space_class(4)
    )
    assert gv_virtual_class_motivic(1) == expected


def test_quotient_form_identity():
    for m in range(1, 9):
        n = fiber_dimension(m)
        lhs = gv_virtual_class_motivic(m) * (L - MOT_ONE) ** 2
        rhs = (
            MotivicClass.u_power(n + 4)
            * (MotivicClass.lefschetz(n + 1) - 1)
            * (MotivicClass.lefschetz(5) - 1)
        )
        assert lhs == rhs


def test_rank_is_five_n_plus_one():
    for m in range(1, 9):
        n = fiber_dimension(m)
        assert gv_arithmetic_direct(m).rank() == 5 * (n + 1)
        assert abs(chi_complex(gv_virtual_class_motivic(m))) == 5 * (n + 1)


def test_palindromic_coefficients():
    for m in (1, 2, 3):
        coeffs = [c for _, c in gv_virtual_class_motivic(m).u_terms]
        assert coeffs == coeffs[::-1]


def test_direct_values():
    assert gv_arithmetic_direct(1) == ALPHA * GwAlphaElement.from_even(H * 10)
    assert gv_arithmetic_direct(2) == ALPHA * GwAlphaElement.from_even(H * 25)
    m4 = gv_arithmetic_direct(4)
    assert m4 == GwAlphaElement.from_even(GwElement.one(QQ) * 87 + GwElement.unit(QQ, -1) * 88)


@pytest.mark.parametrize("field", [QQ, finite_field(7)], ids=str)
def test_direct_value_matches_the_enumerated_class(field):
    # the oracle sums chi_a1 over all ~2.5 m^2 terms of the class itself
    for m in range(1, 41):
        assert gv_arithmetic_direct(m, field) == chi_a1(gv_virtual_class_motivic(m), field)


def test_large_m_answers_at_once():
    src = Path(arithdt.__file__).resolve().parent.parent
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "arithdt", "gv", "--m", "100000", "--compare"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("m=100000 (N=24999750004): 62499375013*<1> + 62499375012*<-1>")
    assert time.perf_counter() - t < 1.0


def test_alpha_parity_of_direct_value():
    for m in range(1, 12):
        n = fiber_dimension(m)
        value = gv_arithmetic_direct(m)
        if (n + 4) % 2:
            assert value.even.is_zero()
            assert not value.odd.is_zero()
        else:
            assert value.odd.is_zero()
            assert not value.even.is_zero()


def test_fiber_dimension_parity():
    for m in range(1, 41):
        n = fiber_dimension(m)
        if m == 1:
            assert n % 2 == 1  # the exceptional case
        elif m % 4 in (2, 3):
            assert n % 2 == 1
        else:
            assert n % 2 == 0


def _closed_form_oracle(m, field):
    """gv_closed_form as it was first written, with Fraction multiplicities."""
    n = castelnuovo.fiber_dimension(m)
    if m % 4 in (0, 1):
        c_plus = Fraction(6 + 5 * n, 2)
        c_minus = Fraction(4 + 5 * n, 2)
        if c_plus.denominator != 1 or c_minus.denominator != 1:
            raise NonIntegralCoefficientError(
                f"branch m = 0,1 (mod 4) gives multiplicities {c_plus} and {c_minus} at m={m}"
            )
        body = GwElement.one(field) * int(c_plus) + GwElement.unit(field, -1) * int(c_minus)
        return GwAlphaElement.alpha(field) * GwAlphaElement.from_even(body)
    c_h = Fraction(5 * (n + 1), 2)
    if c_h.denominator != 1:
        raise NonIntegralCoefficientError(
            f"branch m = 2,3 (mod 4) gives multiplicity {c_h} at m={m}"
        )
    return GwAlphaElement.from_even(GwElement.hyperbolic(field) * int(c_h))


def _class_or_message(closed_form, m, field):
    try:
        return closed_form(m, field)
    except NonIntegralCoefficientError as exc:
        return str(exc)


def test_closed_form_branches(monkeypatch):
    assert gv_closed_form(4) == ALPHA * GwAlphaElement.from_even(
        GwElement.one(QQ) * 88 + GwElement.unit(QQ, -1) * 87
    )
    assert gv_closed_form(2) == GwAlphaElement.from_even(H * 25)
    with pytest.raises(NonIntegralCoefficientError, match=r"^branch m = 0,1 \(mod 4\) gives "
                       r"multiplicities 21/2 and 19/2 at m=1$"):
        gv_closed_form(1)
    # the integer multiplicities against the Fraction oracle: the same class, or the same
    # message; N = m, for small m, also takes each branch to the parity that raises
    fields = (QQ, RR, CC, finite_field(5))
    cases = [(m, field) for m in range(1, 201) for field in fields]
    assert [_class_or_message(gv_closed_form, *case) for case in cases] == [
        _class_or_message(_closed_form_oracle, *case) for case in cases]
    monkeypatch.setattr(castelnuovo, "fiber_dimension", lambda m: m)
    cases = [(m, field) for m in range(1, 13) for field in fields]
    outcomes = [_class_or_message(gv_closed_form, *case) for case in cases]
    assert outcomes == [_class_or_message(_closed_form_oracle, *case) for case in cases]
    assert "branch m = 2,3 (mod 4) gives multiplicity 15/2 at m=2" in outcomes


def test_compare_reports():
    for m in range(1, 9):
        report = gv_compare(m)
        assert report.ranks_agree
        assert report.rank_direct == 5 * (fiber_dimension(m) + 1)

    m1 = gv_compare(1)
    assert m1.closed_error is not None
    assert m1.direct == ALPHA * GwAlphaElement.from_even(H * 10)
    assert "non" in m1.closed_error or "21/2" in m1.closed_error

    m2 = gv_compare(2)
    assert m2.alpha_factor_match
    assert m2.gw_equal_verdict is False
    assert m2.signatures_agree is True  # both sides have signature 0
    assert "alpha" in m2.description

    m4 = gv_compare(4)
    assert m4.alpha_factor_match
    assert m4.gw_equal_verdict is False
    assert m4.signatures_agree is False  # -1 versus i


@pytest.mark.xfail(strict=True, reason="gv_compare checks direct == alpha * closed only, "
                   "not closed == alpha * direct: m = 8, 9, 16, 17, ... say 'disagree'")
def test_compare_never_says_disagree_for_an_alpha_factor_either_way():
    for m in range(1, 41):
        report = gv_compare(m)
        if report.closed is None:
            continue
        direct, closed = report.direct, report.closed
        if direct.gw_equal(ALPHA * closed) or closed.gw_equal(ALPHA * direct):
            assert "disagree" not in report.description, m
