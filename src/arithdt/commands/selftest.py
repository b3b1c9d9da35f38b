"""``arithdt selftest``: the built-in invariant suite; a failed check exits 1.

A condensed, fast subset of the full pytest suite: golden values and ring
identities that exercise every module once.
"""

import random
from fractions import Fraction

from ..castelnuovo import fiber_dimension, gv_arithmetic_direct, gv_compare
from ..degrees import global_degree_univariate, milnor_number_a1
from ..dt import macmahon, macmahon_symmetric, partition_function
from ..ekl import ekl_class
from ..errors import ArithdtError
from ..fields import QQ
from ..forms import hilbert_symbol
from ..gw import GwElement
from ..gwalpha import GaussianInteger, GwAlphaElement, gw_alpha_ring
from ..motivic import (
    L,
    MOT_ONE,
    MotivicClass,
    chi_a1,
    chi_complex,
    chi_real,
    grassmannian_class,
    projective_space_class,
)
from ..multipoly import MultiPoly
from ..nearby import (SncData, StratumRecord, local_nearby_class, nearby_class,
                      virtual_class_critical_locus)
from ..partitions import verify_macmahon, verify_symmetric
from ..potential import MatrixTriple, commutator, gradient_vanishes


def _random_gw(rng, field=QQ) -> GwElement:
    reps = [1, -1, 2, -2, 3, 5, -6]
    return GwElement(field, [(rng.choice(reps), rng.randint(-3, 3)) for _ in range(3)])


def run_selftest() -> list[tuple[str, bool]]:
    rng = random.Random(20230520)
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, bool(ok)))

    H = GwElement.hyperbolic(QQ)
    check("gw: <2>+<-2> = H", (GwElement.unit(QQ, 2) + GwElement.unit(QQ, -2)).gw_equal(H))
    check("gw: <a>H = H", all(
        (GwElement.unit(QQ, a) * H).gw_equal(H) for a in (2, -3, 5, Fraction(7, 2))
    ))
    check("gw: hilbert (-1,-1)_2 = -1", hilbert_symbol(-1, -1, 2) == -1)
    ok = True
    for _ in range(50):
        a, b, c = (_random_gw(rng) for _ in range(3))
        ok = ok and (a * (b + c)) == (a * b + a * c) and (a + b) == (b + a) and (a * b) == (b * a)
    check("gw: ring identities on random elements", ok)

    check("motivic: [P^4] rank", chi_complex(projective_space_class(4)) == 5)
    check("motivic: Gr(5,2) = Gr(5,3)", grassmannian_class(5, 2) == grassmannian_class(5, 3))
    check("motivic: chi_a1(L) = <-1>",
          chi_a1(L).gw_equal(GwAlphaElement.from_even(GwElement.unit(QQ, -1))))

    pf = partition_function(8)
    mm = macmahon(8)
    check("dt: complex series is M(-t)",
          pf.complex.coeffs == tuple(mm.coeffs[n] * (-1) ** n for n in range(9)))
    ms, minus_i = macmahon_symmetric(8), GaussianInteger(0, -1)
    check("dt: real series is M^sym(-it)",
          pf.real.coeffs == tuple(minus_i**n * ms.coeffs[n] for n in range(9)))
    check("dt: arithmetic series is chi_a1 of the motivic series",
          pf.arithmetic == pf.motivic.map_coeffs(lambda c: chi_a1(c, QQ), gw_alpha_ring(QQ)))
    check("dt: MacMahon vs enumeration", verify_macmahon(8).agrees)
    check("dt: symmetric MacMahon vs enumeration", verify_symmetric(8).agrees)

    p = MultiPoly.parse(("x",), "x**2")
    check("ekl: deg(x -> x^2) = H", ekl_class([p]).gw_class.gw_equal(H))
    f = MultiPoly.parse(("x", "y"), "x**2 - y**2")
    check("ekl: mu(x^2-y^2) = <-1>",
          milnor_number_a1(f).gw_class.gw_equal(GwElement.unit(QQ, -1)))
    cubic = global_degree_univariate(MultiPoly.parse(("x",), "x**3 - 2"), 0)
    check("ekl: deg(x^3 - 2) has rank 3, signature 1", (cubic.rank(), cubic.signature()) == (3, 1))

    lines = L - MOT_ONE
    glob = SncData(
        [StratumRecord.of([1], lines), StratumRecord.of([2], lines),
         StratumRecord.of([1, 2], MOT_ONE)],
        2, central_fiber_class=2 * L - MOT_ONE)
    check("nearby: hyperbola S_f = L - 1", nearby_class(glob) == lines)
    loc = SncData(
        [StratumRecord.of([1], MotivicClass.zero()), StratumRecord.of([2], MotivicClass.zero()),
         StratumRecord.of([1, 2], MOT_ONE)], 2)
    s0 = local_nearby_class(loc)
    check("nearby: hyperbola local Euler pair",
          chi_complex(s0) == 0 and chi_real(s0).re == 2 and chi_real(s0).im == 0)
    check("nearby: smooth virtual class",
          virtual_class_critical_locus(MotivicClass.zero(), MotivicClass.lefschetz(3), 3)
          == MotivicClass.u_power(3))

    check("gv: rank 5(N+1) for m <= 4", all(
        gv_arithmetic_direct(m).rank() == 5 * (fiber_dimension(m) + 1) for m in range(1, 5)
    ))
    check("gv: m=1 closed form non-integral", gv_compare(1).closed_error is not None)

    ok = True
    for _ in range(25):
        n = rng.choice((2, 3))
        mats = [
            [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for _ in range(3)
        ]
        t = MatrixTriple.of(*mats)
        zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
        commuting = all(
            commutator(x, y) == zero for x, y in ((t.a, t.b), (t.b, t.c), (t.c, t.a))
        )
        ok = ok and (gradient_vanishes(t) == commuting)
    check("dt: trace potential gradient iff commuting", ok)

    return checks


def run(args) -> tuple:
    report = run_selftest()
    failed = [name for name, ok in report if not ok]
    if failed:
        # one error line, naming each failed check
        names = "; ".join(failed)
        raise ArithdtError(f"selftest: {len(failed)} of {len(report)} checks failed: {names}")
    lines = [f"PASS {name}" for name, _ in report]
    lines.append("selftest: all checks passed")
    return {"checks": [{"name": n, "ok": o} for n, o in report]}, lambda: "\n".join(lines)
