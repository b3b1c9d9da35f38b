"""``arithdt ekl``: the local degree of a polynomial map read from a JSON file."""

from ..ekl import ekl_class
from ..errors import InputDataError
from ..fields import parse_field_label
from ..multipoly import MultiPoly
from . import load_json


def _polys_from_json(data: dict) -> list:
    try:
        variables = tuple(str(v) for v in data["vars"])
        polys = [MultiPoly(variables, pairs) for pairs in data["polys"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"malformed polynomial payload: {exc}") from exc
    if len(set(variables)) != len(variables):
        raise InputDataError(f"duplicate variable names in {list(variables)}")
    if not polys:
        raise InputDataError("no polynomials given")
    return polys


def run(args) -> tuple:
    system = _polys_from_json(load_json(args.map))
    field = parse_field_label(args.field)
    result = ekl_class(system, field)
    cls = result.gw_class
    payload = {
        "class": cls.to_json_dict(),
        "rendered": cls.render(contract_h=args.contract_h),
        "rank": cls.rank(),
        "signature": cls.signature() if field.is_ordered else None,
        "algebra_dimension": result.rank,
    }
    return payload, lambda: (
        f"{payload['rendered']}\nrank: {payload['rank']}"
        + (f"\nsignature: {payload['signature']}" if field.is_ordered else "")
    )
