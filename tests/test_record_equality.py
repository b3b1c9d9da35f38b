"""Every field of every fields.Frozen class takes part in == and hash.

The twin tests in test_value_objects.py compare samples that differ in
their first fields; here each field is varied alone, so an equality that
skips a field fails.
"""

import pytest

import arithdt.castelnuovo  # noqa: F401 -- each of these modules defines Frozen classes
import arithdt.dt  # noqa: F401
import arithdt.ekl  # noqa: F401
import arithdt.nearby  # noqa: F401
import arithdt.partitions  # noqa: F401
import arithdt.series  # noqa: F401
from arithdt.fields import Frozen

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
