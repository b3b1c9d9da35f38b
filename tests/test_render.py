"""fields.render_sum, the one signed-sum renderer, against the three loops it replaced.

Each oracle below is the rendering loop that GwElement, MotivicClass and
MultiPoly carried before they shared ``render_sum``; the outputs must match
character for character on seeded elements.
"""

import random
from fractions import Fraction

import pytest

from arithdt.fields import QQ, RR, finite_field, render_sum
from arithdt.gw import GwElement
from arithdt.motivic import MotivicClass
from arithdt.multipoly import MultiPoly


def oracle_gw_render(element, contract_h=False):
    terms = dict(element.terms)
    pieces = []
    if contract_h:
        m_pos, m_neg = terms.get(1, 0), terms.get(-1, 0)
        h = 0
        if m_pos > 0 and m_neg > 0:
            h = min(m_pos, m_neg)
        elif m_pos < 0 and m_neg < 0:
            h = max(m_pos, m_neg)
        if h:
            for rep in (1, -1):
                terms[rep] -= h
                if not terms[rep]:
                    del terms[rep]
            pieces.append(("H", h))
    entries = [(f"<{r}>", m) for r, m in terms.items()]
    if contract_h and pieces:
        entries = pieces + entries
    if not entries:
        return "0"
    out = []
    for idx, (sym, mult) in enumerate(entries):
        sign = "-" if mult < 0 else "+"
        mag = abs(mult)
        body = sym if mag == 1 else f"{mag}*{sym}"
        if idx == 0:
            out.append(body if mult > 0 else f"-{body}")
        else:
            out.append(f"{sign} {body}")
    return " ".join(out)


def _oracle_u_power(e):
    if e == 0:
        return "1"
    if e == 2:
        return "L"
    if e % 2 == 0:
        return f"L^{{{e // 2}}}"
    return f"L^{{{e}/2}}"


def oracle_motivic_render(cls):
    pieces = []
    for e, c in reversed(cls.u_terms):
        pieces.append((_oracle_u_power(e), c))
    for name, coeff in cls.extras:
        if len(coeff) == 1 and coeff[0][0] == 0:
            pieces.append((f"[{name}]", coeff[0][1]))
        else:
            inner = oracle_motivic_render(MotivicClass._make(coeff))
            pieces.append((f"({inner})*[{name}]", 1))
    if not pieces:
        return "0"
    out = []
    for idx, (sym, c) in enumerate(pieces):
        mag = abs(c)
        body = sym if (mag == 1 and sym != "1") else (str(mag) if sym == "1" else f"{mag}*{sym}")
        if idx == 0:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(out)


def oracle_multipoly_render(p):
    if not p.terms:
        return "0"
    monos = []
    for e, c in sorted(p.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
        parts = []
        for name, k in zip(p.variables, e):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        body = "*".join(parts)
        if not body:
            monos.append((str(abs(c)), c < 0))
        elif abs(c) == 1:
            monos.append((body, c < 0))
        else:
            monos.append((f"{abs(c)}*{body}", c < 0))
    out = []
    for idx, (body, negative) in enumerate(monos):
        if idx == 0:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f"{'-' if negative else '+'} {body}")
    return " ".join(out)


def test_render_sum_golden():
    assert render_sum([]) == "0"
    assert render_sum([("x", 1)]) == "x"
    assert render_sum([("x", -1)]) == "-x"
    assert render_sum([("x", 3), ("", -1)]) == "3*x - 1"
    assert render_sum([("", -2), ("y", 1), ("z", Fraction(-1, 2))]) == "-2 + y - 1/2*z"
    assert render_sum([("", 1), ("", Fraction(3, 4))]) == "1 + 3/4"


def _random_gw(rng, field):
    reps = [1, -1, 2, -2, 3, -3, 5, 6, -7]
    return GwElement(field, [(rng.choice(reps), rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))])


@pytest.mark.parametrize("field", [QQ, RR, finite_field(11)], ids=str)
def test_gw_render_matches_oracle(field):
    rng = random.Random(11)
    for _ in range(300):
        element = _random_gw(rng, field)
        for contract_h in (False, True):
            assert element.render(contract_h) == oracle_gw_render(element, contract_h)


def test_gw_render_oracle_cases():
    one, minus_one = GwElement.unit(QQ, 1), GwElement.unit(QQ, -1)
    cases = [
        GwElement.zero(QQ),
        -GwElement.hyperbolic(QQ) * 2,
        -GwElement.hyperbolic(QQ) * 2 + one,
        GwElement.hyperbolic(QQ) - GwElement.unit(QQ, 2) * 3,
        one * -3 + minus_one * -2 + GwElement.unit(QQ, 5),
    ]
    for element in cases:
        for contract_h in (False, True):
            assert element.render(contract_h) == oracle_gw_render(element, contract_h)
    assert cases[1].render(contract_h=True) == "-2*H"
    assert cases[3].render(contract_h=True) == "H - 3*<2>"


def _random_motivic(rng):
    u_terms = [(rng.randint(-5, 6), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
    extras = {}
    for name in rng.sample(["SpecC", "X", "Y"], rng.randint(0, 2)):
        extras[name] = [(rng.choice((0, 0, 1, 2, -2)), rng.randint(-3, 3))
                        for _ in range(rng.randint(1, 3))]
    return MotivicClass(u_terms, extras)


def test_motivic_render_matches_oracle():
    rng = random.Random(12)
    for _ in range(500):
        cls = _random_motivic(rng)
        assert cls.render() == oracle_motivic_render(cls)
    for cls in (MotivicClass.zero(), MotivicClass.from_int(-1), MotivicClass.from_int(7),
                MotivicClass.generator("SpecC", -2), MotivicClass.u_power(-3, -1)):
        assert cls.render() == oracle_motivic_render(cls)


def _random_multipoly(rng):
    variables = ("x", "y", "z")[: rng.randint(1, 3)]
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]
    terms = {
        tuple(rng.randint(0, 2) for _ in variables): rng.choice(coeffs)
        for _ in range(rng.randint(0, 5))
    }
    return MultiPoly(variables, terms)


def test_multipoly_render_matches_oracle():
    rng = random.Random(13)
    for _ in range(500):
        p = _random_multipoly(rng)
        assert p.render() == oracle_multipoly_render(p)
    mixed = MultiPoly(("x", "y"), {(2, 1): -1, (0, 1): Fraction(1, 3), (0, 0): -1})
    for p in (MultiPoly.zero(("x",)), MultiPoly.constant(("x", "y"), Fraction(-7, 2)), mixed):
        assert p.render() == oracle_multipoly_render(p)
    assert mixed.render() == "-x^2*y + 1/3*y - 1"
