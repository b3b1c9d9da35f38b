"""The immutable value classes keep the contract of frozen dataclasses.

Each class has an oracle twin here: a ``@dataclass(frozen=True)`` with the
same name, fields and defaults, defined only in the tests.  For sample
instances, equality, hashing, repr, keyword construction, the constructor's
signature and the AttributeError on assignment and deletion must match the
twin's; validation and normalization must still run in the constructor.
"""

import copy
import inspect
import pickle
from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass, make_dataclass

import pytest

import arithdt.ekl
from arithdt.castelnuovo import CastelnuovoInput, GvComparison, gv_compare
from arithdt.degrees import ConjugatePair, MilnorReport, milnor_chi_relation
from arithdt.dt import PartitionFunctionResult, partition_function
from arithdt.ekl import EklResult, ekl_class
from arithdt.errors import ArithdtError, InputDataError
from arithdt.fields import CC, QQ, RR, BaseField, CoefficientRing, Frozen, finite_field
from arithdt.gw import gw_ring
from arithdt.gwalpha import SPEC_C, GaussianInteger, GeneratorSpec
from arithdt.motivic import L, MOT_ONE, MotivicClass, quadratic_point_generator
from arithdt.multipoly import MultiPoly
from arithdt.nearby import SncData, StratumRecord
from arithdt.partitions import VerifyReport, verify_macmahon
from arithdt.potential import MatrixTriple
from arithdt.series import INT_RING
from arithdt.squares import SquareClass


def _twin(cls):
    """A frozen dataclass named like cls, with its fields, constructor defaults and own repr."""
    params = inspect.signature(cls).parameters.values()
    spec = [
        (p.name, object) if p.default is inspect.Parameter.empty else (p.name, object, p.default)
        for p in params
    ]
    # a repr written in the class body is one the dataclass decorator kept
    own = {name: cls.__dict__[name] for name in ("__repr__", "__str__") if name in cls.__dict__}
    return make_dataclass(cls.__name__, spec, frozen=True, namespace=own)


def _ekl_samples():
    cusp = ekl_class([MultiPoly.parse(("x", "y"), t) for t in ("x**2", "y**3")])
    node = ekl_class([MultiPoly.parse(("x",), "x**3")])
    return cusp, node


def _milnor_samples():
    zero = MotivicClass.zero()
    data = SncData(
        [StratumRecord.of([1], zero), StratumRecord.of([2], zero), StratumRecord.of([1, 2], MOT_ONE)], 2
    )
    report = milnor_chi_relation(MultiPoly.parse(("x", "y"), "x**2 - y**2"), data)
    other = MilnorReport(report.function, report.lhs, report.rhs, report.milnor, False, "changed")
    return report, other


# class -> () -> two unequal sample instances
SAMPLES = {
    BaseField: lambda: (QQ, finite_field(7)),
    SquareClass: lambda: (SquareClass.of(QQ, 12), SquareClass.of(finite_field(5), 2)),
    GaussianInteger: lambda: (GaussianInteger(2, -3), GaussianInteger(0, 1)),
    GeneratorSpec: lambda: (SPEC_C, quadratic_point_generator(-3)),
    CoefficientRing: lambda: (INT_RING, gw_ring(finite_field(5))),
    PartitionFunctionResult: lambda: (partition_function(3), partition_function(3, RR)),
    MatrixTriple: lambda: (
        MatrixTriple.of([[1, 0], [0, 2]], [[0, 1], [1, 0]], [[3, 0], [0, "1/2"]]),
        MatrixTriple.of([[1]], [[2]], [[3]], [4]),
    ),
    EklResult: _ekl_samples,
    ConjugatePair: lambda: (ConjugatePair(2, ((0, 1), (1, 0))), ConjugatePair(-1, ((1, 1),))),
    MilnorReport: _milnor_samples,
    CastelnuovoInput: lambda: (CastelnuovoInput.of(1), CastelnuovoInput.of(2)),
    GvComparison: lambda: (gv_compare(1), gv_compare(2, RR)),
    StratumRecord: lambda: (StratumRecord.of([2, 1], L - 1, {1: 2, 2: 4}), StratumRecord.of([3], MOT_ONE)),
    SncData: lambda: (
        SncData([StratumRecord.of([1], L)], 2, central_fiber_class=2 * L - 1),
        SncData((), 1),
    ),
    VerifyReport: lambda: (verify_macmahon(3), VerifyReport(4, False, (4, 12, 13))),
}

CLASSES = list(SAMPLES)


def _fields_of(obj) -> dict:
    return {name: getattr(obj, name) for name in type(obj).__match_args__}


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


def test_every_value_class_is_covered():
    assert len(CLASSES) == 15
    assert all(issubclass(cls, Frozen) for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_value_class_matches_its_dataclass_twin(cls):
    twin_cls = _twin(cls)
    samples = SAMPLES[cls]()
    twins = [twin_cls(**_fields_of(x)) for x in samples]
    assert cls.__match_args__ == twin_cls.__match_args__ == tuple(f.name for f in fields(twin_cls))

    for x, tx in zip(samples, twins):
        assert repr(x) == repr(tx)
        assert _hash_or_error(x) == _hash_or_error(tx)
        assert type(x)(**_fields_of(x)) == x
        assert type(x)(*_fields_of(x).values()) == x
        assert (x == tx) is (tx == x) is False
        assert x != "not a value object"
        for name in cls.__match_args__:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
            with pytest.raises(FrozenInstanceError):
                setattr(tx, name, None)
        with pytest.raises(AttributeError):
            x.not_a_field = 1
        assert _fields_of(copy.copy(x)) == _fields_of(x)
        assert repr(copy.deepcopy(x)) == repr(x) == repr(copy.deepcopy(tx))

    a, b = samples
    ta, tb = twins
    assert (a == a, a == b, a != b) == (ta == ta, ta == tb, ta != tb) == (True, False, True)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_constructor_signature_matches_the_twin(cls):
    ours = inspect.signature(cls).parameters.values()
    twin = [
        (f.name, None if f.default is MISSING else f.default) for f in fields(_twin(cls))
    ]
    assert [(p.name, None if p.default is inspect.Parameter.empty else p.default) for p in ours] == twin
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in ours)


def test_defaults_and_keyword_construction():
    assert BaseField(kind="Q") == BaseField("Q", None) == QQ
    assert BaseField(p=5, kind="F") == finite_field(5)
    assert SncData(strata=[], ambient_dimension=3).central_fiber_class is None
    assert inspect.signature(StratumRecord).parameters["multiplicities"].default == ()


def test_copies_rebuild_through_the_constructor():
    # a QuotientAlgebra compares by identity, so the EKL records compare by repr
    for cls in CLASSES:
        for x in SAMPLES[cls]():
            assert copy.copy(x) == x
            clone = pickle.loads(pickle.dumps(x))
            assert type(clone) is cls and repr(clone) == repr(x)
            if cls not in (EklResult, MilnorReport):
                assert clone == x


def test_assignment_error_is_an_attribute_error_not_a_domain_error():
    with pytest.raises(AttributeError, match="cannot assign to field 'kind'") as info:
        QQ.kind = "R"
    assert not isinstance(info.value, ArithdtError)
    with pytest.raises(AttributeError, match="cannot delete field 'rep'"):
        del SquareClass.of(QQ, 2).rep
    assert QQ.kind == "Q"


@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(lambda: BaseField("Z"), ArithdtError, id="field-unknown-kind"),
        pytest.param(lambda: BaseField("F", 2), ArithdtError, id="field-even-p"),
        pytest.param(lambda: BaseField("F", 9), ArithdtError, id="field-composite-p"),
        pytest.param(lambda: BaseField("F"), ArithdtError, id="field-missing-p"),
        pytest.param(lambda: BaseField("Q", 5), ArithdtError, id="field-p-over-q"),
        pytest.param(lambda: SquareClass(QQ, 12), ArithdtError, id="square-class-not-canonical"),
        pytest.param(lambda: SquareClass(RR, 3), ArithdtError, id="square-class-not-sign"),
        pytest.param(lambda: SquareClass(CC, 0), ArithdtError, id="square-class-zero"),
        pytest.param(lambda: ConjugatePair(8, ((0, 1),)), ArithdtError, id="pair-not-square-free"),
        pytest.param(lambda: ConjugatePair(1, ((0, 1),)), ArithdtError, id="pair-d-one"),
        pytest.param(lambda: StratumRecord(frozenset(), MOT_ONE), InputDataError, id="stratum-empty"),
        pytest.param(lambda: StratumRecord.of([], MOT_ONE), InputDataError, id="stratum-of-empty"),
        pytest.param(lambda: StratumRecord({1}, MOT_ONE), InputDataError, id="stratum-default-mults"),
        pytest.param(lambda: StratumRecord({1}, MOT_ONE, {1: 0}), InputDataError, id="stratum-zero-mult"),
        pytest.param(lambda: StratumRecord({1}, MOT_ONE, {2: 1}), InputDataError, id="stratum-mult-off-set"),
        pytest.param(lambda: SncData((), 0), InputDataError, id="snc-dim-zero"),
        pytest.param(
            lambda: GeneratorSpec("g", 3, GaussianInteger(0, 0), SPEC_C.chi_a1), ArithdtError, id="spec-rank"
        ),
        pytest.param(
            lambda: GeneratorSpec("g", 2, GaussianInteger(2, 0), SPEC_C.chi_a1), ArithdtError, id="spec-sig"
        ),
    ],
)
def test_constructors_still_validate(build, error):
    with pytest.raises(error):
        build()


def test_constructors_still_normalize():
    rec = StratumRecord([2, 1], MOT_ONE, [(2, 3), (1, 1)])
    assert rec.index_set == frozenset({1, 2}) and type(rec.index_set) is frozenset
    assert rec.multiplicities == ((1, 1), (2, 3))
    assert rec == StratumRecord.of({1, 2}, MOT_ONE, {1: 1, 2: 3})
    assert SncData([rec], 2).strata == (rec,)
    assert SquareClass._make(QQ, 3) == SquareClass.of(QQ, 12) == SquareClass(QQ, 3)


def test_ekl_gram_is_built_on_first_read(monkeypatch):
    walks = []
    walk = arithdt.ekl._gram_walk
    monkeypatch.setattr(arithdt.ekl, "_gram_walk", lambda *a: walks.append(1) or walk(*a))
    samples = _ekl_samples()
    assert len(walks) == 2  # one row walk per ekl_class, consumed by its elimination
    for result in samples:
        walks.clear()
        assert result._gram is None
        gram = result.gram  # the walk again, from the algebra and phi
        assert len(walks) == 1 and result.gram is gram and len(walks) == 1
        assert len(gram) == result.rank and all(len(row) == result.rank for row in gram)
        public = EklResult(
            gw_class=result.gw_class, rank=result.rank, gram=gram,
            distinguished_socle=result.distinguished_socle, algebra=result.algebra,
        )
        assert public == result and public.gram is gram and len(walks) == 1


def test_gaussian_integer_repr_is_its_str():
    # the class defines its own repr, as the dataclass left it
    assert repr(GaussianInteger(2, -3)) == str(GaussianInteger(2, -3)) == "2-3i"


def test_twin_helper_builds_a_frozen_dataclass():
    twin = _twin(GaussianInteger)
    assert is_dataclass(twin) and twin.__dataclass_params__.frozen
    assert twin.__name__ == "GaussianInteger"
    assert [f.name for f in fields(twin)] == ["re", "im"]
