"""Motivic nearby classes and virtual classes of critical loci.

The user supplies the combinatorial shadow of a simple-normal-crossing
resolution of the zero fiber: for each nonempty index set I of exceptional
components, the class of the (Galois-covered) open stratum and the
component multiplicities.  The nearby class is the alternating sum

    S = sum over I of (1 - L)^(|I| - 1) * [stratum_I]

and the virtual class of a critical locus is -L^(-dim/2) (S - [X_0]).  S and
the virtual class are each one ``motivic.sum_products``, so they go through
the motivic sum kernel.
Coverings are not constructed here; their classes are input.  The
multiplicities are recorded but not acted on: all classes are assumed to lie
in the subring with trivial monodromy action.
"""

from __future__ import annotations

from collections import Counter

from .errors import InputDataError, brief, json_dict, json_int, json_list, text_int
from .fields import Frozen
from .motivic import MotivicClass, sum_products


class StratumRecord(Frozen):
    """One open stratum E_I with its covering class and multiplicities."""

    __slots__ = __match_args__ = ("index_set", "stratum_class", "multiplicities")

    def __init__(self, index_set, stratum_class: MotivicClass, multiplicities=()) -> None:
        if not index_set:
            raise InputDataError("stratum index set must be nonempty")
        indices = [json_int(i, "stratum index") for i in index_set]
        pairs = list(multiplicities.items() if isinstance(multiplicities, dict) else multiplicities)
        # a set or a dict would keep one of two equal indices ("2" and "02" are both 2)
        for where, keys in (("I", indices), ("mult", [i for i, _ in pairs])):
            if repeated := [i for i, n in Counter(keys).items() if n > 1]:
                raise InputDataError(f"stratum index {brief(repeated[0])} appears twice in {where}")
        index_set = frozenset(indices)
        mults = {i: json_int(n, "multiplicity") for i, n in pairs}
        if set(mults) != index_set:
            raise InputDataError("multiplicities must be given exactly on the index set")
        if any(n <= 0 for n in mults.values()):
            raise InputDataError("multiplicities must be positive integers")
        self._assign(index_set, stratum_class, tuple(sorted(mults.items())))

    @classmethod
    def of(cls, indices, stratum_class: MotivicClass, multiplicities=None) -> "StratumRecord":
        indices = list(indices)
        if multiplicities is None:
            multiplicities = {i: 1 for i in indices}
        return cls(indices, stratum_class, multiplicities)

    def to_json_dict(self) -> dict:
        return {
            "I": sorted(self.index_set),
            "mult": {str(i): n for i, n in self.multiplicities},
            "class": self.stratum_class.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StratumRecord":
        data = json_dict(data, "stratum record")
        indices = json_list(data.get("I"), '"I"')
        mults = [(text_int(i, '"mult" key'), n) for i, n in json_dict(data.get("mult"), '"mult"').items()]
        return cls(indices, MotivicClass.from_json_dict(data.get("class")), mults)


class SncData(Frozen):
    """Strata of one resolution, the ambient dimension, and [X_0].

    Records with equal index sets are allowed and simply add up; the sum
    below is linear in the stratum classes.
    """

    __slots__ = __match_args__ = ("strata", "ambient_dimension", "central_fiber_class")

    def __init__(self, strata: tuple, ambient_dimension: int,
                 central_fiber_class: MotivicClass | None = None) -> None:
        if json_int(ambient_dimension, "ambient dimension") < 1:
            raise InputDataError("ambient dimension must be at least 1")
        self._assign(tuple(strata), ambient_dimension, central_fiber_class)

    def to_json_dict(self) -> dict:
        out = {
            "dim": self.ambient_dimension,
            "strata": [s.to_json_dict() for s in self.strata],
        }
        if self.central_fiber_class is not None:
            out["x0_class"] = self.central_fiber_class.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "SncData":
        """``data["strata"]`` may be any iterable: ``commands/nearby`` checks that the JSON's is a list."""
        data = json_dict(data, "SNC data")
        strata = tuple(map(StratumRecord.from_json_dict, data.get("strata", ())))
        x0 = data.get("x0_class")
        return cls(strata, data.get("dim"), None if x0 is None else MotivicClass.from_json_dict(x0))


def nearby_class(data: SncData) -> MotivicClass:
    """S = sum over nonempty I of (1 - L)^(|I|-1) [stratum_I].

    One ``sum_products`` over the (class, binomial row of its weight) pairs: no
    class is built per stratum or per size, and the work per term is linear in |I|.
    """
    rows = {k: _weight(k) for k in {len(r.index_set) for r in data.strata}}
    return sum_products((r.stratum_class, rows[len(r.index_set)]) for r in data.strata)


def _weight(k: int) -> tuple:
    """The u-terms of (1 - L)^(k-1): its binomial row, sum over j of (-1)^j C(k-1, j) L^j.

    Each coefficient is made from the one before, in time linear in k.
    """
    terms, c = [], 1
    for j in range(k):
        terms.append((2 * j, c))
        c = -c * (k - 1 - j) // (j + 1)
    return tuple(terms)


def local_nearby_class(data: SncData) -> MotivicClass:
    """Same alternating sum, taken on fiber classes over a chosen point.

    The caller restricts the stratum classes to the fiber; the combinatorial
    sum is identical to the global one.
    """
    return nearby_class(data)


def virtual_class_critical_locus(
    s_f: MotivicClass, x0: MotivicClass, dim_x: int
) -> MotivicClass:
    """-L^(-dim/2) (S_f - [X_0]); odd dimensions use the half power of L.

    One ``sum_products``: S_f times -u^(-dim) plus [X_0] times u^(-dim).
    """
    e = json_int(-dim_x, "exponent")
    return sum_products(((s_f, ((e, -1),)), (x0, ((e, 1),))))


def virtual_class_torus(x0: MotivicClass, x1: MotivicClass, dim_x: int) -> MotivicClass:
    """-L^(-dim/2) ([X_1] - [X_0]); the caller asserts circle-compact equivariance."""
    return virtual_class_critical_locus(x1, x0, dim_x)
