"""Nearby classes and virtual classes from stratification data."""

import json
import random
import time
from math import gcd

import pytest

from arithdt.dt import z_motivic
from arithdt.errors import InputDataError
from arithdt.fields import QQ
from arithdt.gw import GwElement
from arithdt.gwalpha import GaussianInteger
from arithdt.motivic import L, MOT_ONE, MotivicClass, chi_a1, chi_complex, chi_real
from arithdt.nearby import (
    SncData,
    StratumRecord,
    local_nearby_class,
    nearby_class,
    virtual_class_critical_locus,
    virtual_class_torus,
)

LINES = L - MOT_ONE  # class of a line minus a point


def oracle_nearby_class(data):
    """The alternating sum taken one stratum at a time, by powering the weight."""
    total = MotivicClass.zero()
    for record in data.strata:
        total = total + (MOT_ONE - L) ** (len(record.index_set) - 1) * record.stratum_class
    return total


def _random_class(rng, extras):
    u_terms = [(rng.randint(-8, 8), rng.randint(-5, 5)) for _ in range(rng.randint(0, 6))]
    names = rng.sample(["SpecC", "SpecQ(sqrt(2))"], rng.randint(1, 2)) if extras else []
    return MotivicClass(u_terms, [(n, [(rng.randint(-4, 4), rng.randint(-3, 3))]) for n in names])


def _random_snc(seed):
    """Strata with |I| from 1 to 40, index sets drawn twice, Tate and non-Tate classes."""
    rng = random.Random(seed)
    strata = []
    for _ in range(rng.randint(1, 12)):
        index_set = rng.sample(range(1, 60), rng.randint(1, 40))
        for _ in range(rng.choice((1, 1, 2, 3))):  # a repeated index set adds up
            strata.append(StratumRecord.of(index_set, _random_class(rng, rng.random() < 0.4)))
    rng.shuffle(strata)
    return SncData(strata, rng.randint(1, 5))


def hyperbola_global():
    return SncData(
        [
            StratumRecord.of([1], LINES),
            StratumRecord.of([2], LINES),
            StratumRecord.of([1, 2], MOT_ONE),
        ],
        2,
        central_fiber_class=2 * L - 1,
    )


def hyperbola_local():
    return SncData(
        [
            StratumRecord.of([1], MotivicClass.zero()),
            StratumRecord.of([2], MotivicClass.zero()),
            StratumRecord.of([1, 2], MOT_ONE),
        ],
        2,
    )


def test_nearby_class_hyperbola():
    assert nearby_class(hyperbola_global()) == L - 1


@pytest.mark.parametrize("seed", range(40))
def test_nearby_class_matches_the_per_stratum_oracle(seed):
    data = _random_snc(seed)
    assert nearby_class(data) == oracle_nearby_class(data) == local_nearby_class(data)


def test_the_oracle_cases_cover_what_the_grouping_meets():
    sizes, repeated, extras = set(), 0, 0
    for seed in range(40):
        strata = _random_snc(seed).strata
        sizes |= {len(r.index_set) for r in strata}
        repeated += len(strata) - len({r.index_set for r in strata})
        extras += sum(bool(r.stratum_class.extras) for r in strata)
    assert {1, 40} <= sizes and repeated and extras
    empty = SncData([], 3)
    assert nearby_class(empty) == oracle_nearby_class(empty) == local_nearby_class(empty)


def test_a_weight_of_four_thousand_terms_answers_quickly():
    # the weight (1 - L)^3999 is a binomial row: powering took about 16 s
    data = SncData([StratumRecord.of(range(4000), MOT_ONE)], 2)
    start = time.perf_counter()
    cls = nearby_class(data)
    assert time.perf_counter() - start < 2.0
    assert len(cls.u_terms) == 4000 and cls.u_terms[1] == (2, -3999)
    assert cls.u_terms[-1] == (7998, -1) and chi_real(cls) == GaussianInteger(2**3999, 0)


def test_nearby_class_trivial_cases():
    assert nearby_class(SncData([], 2)) == MotivicClass.zero()
    c = 3 * L - MOT_ONE
    single = SncData([StratumRecord.of([1], c)], 4)
    assert nearby_class(single) == c


def test_local_nearby_class_hyperbola():
    s0 = local_nearby_class(hyperbola_local())
    assert s0 == 1 - L
    assert chi_complex(s0) == 0
    assert chi_real(s0) == GaussianInteger(2, 0)
    image = chi_a1(s0, QQ)
    assert image.odd.is_zero()
    assert image.even.gw_equal(GwElement.one(QQ) - GwElement.unit(QQ, -1))


def test_local_nearby_class_point_off_fiber():
    # all fiber classes empty away from the zero fiber
    data = SncData(
        [StratumRecord.of([1], MotivicClass.zero()), StratumRecord.of([2], MotivicClass.zero())],
        2,
    )
    assert local_nearby_class(data) == MotivicClass.zero()


def test_nearby_class_additive_in_strata():
    base = hyperbola_global()
    split = SncData(
        [
            StratumRecord.of([1], L),
            StratumRecord.of([1], -MOT_ONE),
            StratumRecord.of([2], LINES),
            StratumRecord.of([1, 2], MOT_ONE),
        ],
        2,
        central_fiber_class=base.central_fiber_class,
    )
    assert nearby_class(split) == nearby_class(base)


def test_virtual_class_of_critical_locus():
    # the zero function: S_f = 0, X_0 = X, so the class is L^(-dim/2)[X]
    for dim, cls in ((3, MotivicClass.lefschetz(3)), (2, 5 * L), (1, L + 1)):
        virt = virtual_class_critical_locus(MotivicClass.zero(), cls, dim)
        assert virt == MotivicClass.u_power(-dim) * cls
    # S_f = [X_0] gives zero
    assert virtual_class_critical_locus(LINES, LINES, 4) == MotivicClass.zero()
    # the hyperbola: S_f = L - 1, [X_0] = 2L - 1, dim 2
    assert virtual_class_critical_locus(L - 1, 2 * L - 1, 2) == MOT_ONE


def test_virtual_class_torus():
    x = 7 * L - 2
    assert virtual_class_torus(x, x, 6) == MotivicClass.zero()
    assert virtual_class_torus(
        MotivicClass.zero(), -MotivicClass.u_power(4), 4
    ) == MOT_ONE
    # the first Hilbert scheme of affine 3-space: X_0 = A^3, X_1 empty
    hilb1 = virtual_class_torus(MotivicClass.lefschetz(3), MotivicClass.zero(), 3)
    assert hilb1 == MotivicClass.u_power(3)
    assert hilb1 == z_motivic(2).coeffs[1]


def oracle_virtual_class(s_f, x0, dim_x):
    """-L^(-dim/2) (S_f - [X_0]) by the ring operations, one class per step."""
    return -MotivicClass.u_power(-dim_x) * (s_f - x0)


@pytest.mark.parametrize("seed", range(3))
def test_virtual_classes_are_the_ring_expression(seed):
    rng = random.Random(seed)
    for _ in range(300):
        a, b = (_random_class(rng, rng.random() < 0.4) for _ in range(2))
        dim = rng.randint(1, 7)
        assert virtual_class_critical_locus(a, b, dim) == oracle_virtual_class(a, b, dim), (a, b, dim)
        assert virtual_class_torus(b, a, dim) == oracle_virtual_class(a, b, dim), (a, b, dim)


def test_monodromy_orders():
    # m_I, the gcd of the multiplicities, is read off the record's multiplicities
    record = StratumRecord.of([1, 2, 3], MOT_ONE, {1: 4, 2: 6, 3: 10})
    assert record.multiplicities == ((1, 4), (2, 6), (3, 10))
    assert gcd(*(n for _, n in record.multiplicities)) == 2
    assert StratumRecord.of([5], MOT_ONE, {5: 3}).multiplicities == ((5, 3),)


def test_stratum_validation():
    with pytest.raises(InputDataError):
        StratumRecord.of([], MOT_ONE)
    with pytest.raises(InputDataError):
        StratumRecord.of([1], MOT_ONE, {2: 1})
    with pytest.raises(InputDataError):
        StratumRecord.of([1], MOT_ONE, {1: 0})
    with pytest.raises(InputDataError):
        SncData([], 0)


def _stratum_json(indices, mult):
    return {"I": indices, "mult": mult, "class": {"u_coeffs": [[2, 1]]}}


@pytest.mark.parametrize(
    "stratum,message",
    [
        # read as |I| = 1, this printed nearby_class: L
        (_stratum_json([1, 1], {"1": 1}), "stratum index 1 appears twice in I"),
        (_stratum_json([3, 1, 2, 1], {"1": 1, "2": 1, "3": 1}), "stratum index 1 appears twice in I"),
        # "2" and "02" name one index: the last one won
        (_stratum_json([2], {"2": 1, "02": 3}), "stratum index 2 appears twice in mult"),
        (_stratum_json([1, 2], {"1": 1, "2": 1, " 1": 1}), "stratum index 1 appears twice in mult"),
        # repeated in both: the index list is read first
        (_stratum_json([1, 1], {"1": 1, "01": 1}), "stratum index 1 appears twice in I"),
    ],
)
def test_a_repeated_index_is_refused(stratum, message):
    with pytest.raises(InputDataError, match=f"^{message}$"):
        StratumRecord.from_json_dict(stratum)
    with pytest.raises(InputDataError, match=f"^{message}$"):
        SncData.from_json_dict({"dim": 2, "strata": [stratum]})


@pytest.mark.parametrize(
    "build,message",
    [
        # each was the stratum {1}, and nearby_class of it was L
        pytest.param(lambda: StratumRecord.of([1, 1], L), "stratum index 1 appears twice in I", id="of"),
        pytest.param(lambda: StratumRecord([1, 1], L, {1: 1}), "stratum index 1 appears twice in I",
                     id="constructor"),
        pytest.param(lambda: StratumRecord.of([3, 1, 3], L, {1: 1, 3: 1}),
                     "stratum index 3 appears twice in I", id="of-with-mults"),
        # as pairs, a multiplicity can be named twice; the last one won
        pytest.param(lambda: StratumRecord([2], L, [(2, 1), (2, 3)]),
                     "stratum index 2 appears twice in mult", id="mult-pairs"),
    ],
)
def test_the_constructors_refuse_a_repeated_index(build, message):
    with pytest.raises(InputDataError, match=f"^{message}$"):
        build()


def test_of_reads_an_iterator_of_indices_once():
    assert StratumRecord.of(iter([2, 1]), L) == StratumRecord.of({1, 2}, L)


def test_json_round_trip():
    data = hyperbola_global()
    back = SncData.from_json_dict(data.to_json_dict())
    assert back == data
    assert nearby_class(back) == nearby_class(data)
    with pytest.raises(InputDataError):
        SncData.from_json_dict({"strata": []})


def test_from_json_dict_leaves_its_argument_as_it_was():
    tree = json.loads(json.dumps(hyperbola_global().to_json_dict()))
    before = json.dumps(tree)
    assert SncData.from_json_dict(tree) == hyperbola_global()
    assert json.dumps(tree) == before
