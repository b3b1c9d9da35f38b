"""Every field of every fields.Value class takes part in == and hash.

The twin tests in test_value_objects.py compare samples that differ in
their first fields; here each field is varied alone, so an equality that
skips a field fails.  The five rings, which subclass Value directly, are
checked on real elements, each hash against the hash of the field tuple
(for MultiPoly, with its dict of terms as sorted items).
"""

import operator
import pickle
from fractions import Fraction

import pytest

import arithdt.castelnuovo  # noqa: F401 -- each of these modules defines Frozen classes
import arithdt.degrees  # noqa: F401
import arithdt.dt  # noqa: F401
import arithdt.ekl  # noqa: F401
import arithdt.nearby  # noqa: F401
import arithdt.partitions  # noqa: F401
import arithdt.potential  # noqa: F401
import arithdt.squares  # noqa: F401
from arithdt.errors import FieldMismatchError
from arithdt.fields import QQ, RR, CoefficientRing, Frozen, Value
from arithdt.gw import GwElement
from arithdt.gwalpha import GwAlphaElement
from arithdt.motivic import MotivicClass
from arithdt.multipoly import MultiPoly
from arithdt.series import INT_RING, TruncatedSeries

FRACTION_RING = CoefficientRing("Q", Fraction(0), Fraction(1))

CLASSES = sorted(Frozen.__subclasses__(), key=lambda c: c.__name__)


def _with_fields(cls, values):
    """An instance of cls holding values, past any validation in __init__."""
    if cls.__slots__ != cls.__match_args__:
        return cls(*values)  # EklResult: a computed field, and no validation
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


def test_all_fifteen_classes_are_covered():
    assert len(CLASSES) == 15


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_each_field_decides_equality_and_hash(cls):
    base = tuple(range(len(cls.__match_args__)))
    x, y = _with_fields(cls, base), _with_fields(cls, base)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(base)
    for i, name in enumerate(cls.__match_args__):
        other = _with_fields(cls, base[:i] + (-1,) + base[i + 1:])
        assert x != other and not x == other, name


def _ring_sample(cls, fields):
    """A ring element holding the given fields, past its constructor."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        setattr(obj, name, value)
    return obj


# per ring: a sample, one other value for each field, and its expected hash
RINGS = {
    GwElement: (
        GwElement(QQ, {2: 1, -1: 3}),
        (RR, GwElement.unit(QQ, 2).terms),
        lambda g: hash((g.field, g.terms)),
    ),
    GwAlphaElement: (
        GwAlphaElement(GwElement.unit(QQ, 2), GwElement.one(QQ)),
        (GwElement.unit(QQ, 3), GwElement.unit(QQ, 5)),
        lambda g: hash((g.even, g.odd)),
    ),
    MotivicClass: (
        MotivicClass([(1, 2), (0, -1)], [("X", [(0, 1)])]),
        (MotivicClass([(1, 2)]).u_terms, ()),
        lambda m: hash((m.u_terms, m.extras)),
    ),
    MultiPoly: (
        MultiPoly(("x", "y"), {(1, 0): 1, (0, 2): Fraction(1, 2)}),
        (("x", "z"), {(1, 0): Fraction(1)}),
        lambda p: hash((p.variables, tuple(sorted(p.terms.items())))),
    ),
    TruncatedSeries: (
        TruncatedSeries(INT_RING, 2, [1, 2, 3]),
        (FRACTION_RING, 3, (1, 2, 4)),
        lambda s: hash((s.ring, s.order, s.coeffs)),
    ),
}


def test_all_five_rings_are_covered():
    assert set(Value.__subclasses__()) - {Frozen} == set(RINGS)


@pytest.mark.parametrize("cls", list(RINGS), ids=lambda c: c.__name__)
def test_each_ring_field_decides_equality_and_hash(cls):
    x, others, old_hash = RINGS[cls]
    fields = tuple(getattr(x, name) for name in cls.__match_args__)
    y = _ring_sample(cls, fields)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == old_hash(x)
    assert pickle.loads(pickle.dumps(x)) == x
    assert x != fields and not x == fields
    for i, name in enumerate(cls.__match_args__):
        other = _ring_sample(cls, fields[:i] + (others[i],) + fields[i + 1:])
        assert x != other and not x == other, name


def test_mixed_field_alpha_ops_refuse():
    q, r = GwAlphaElement.one(QQ), GwAlphaElement.alpha(RR)
    # * also takes a plain GwElement, as an alpha-free element
    for op, other in [(operator.add, r), (operator.mul, r), (operator.mul, r.even)]:
        with pytest.raises(FieldMismatchError, match="^mixed base fields Q and R$"):
            op(q, other)
