"""``arithdt ekl``: the local degree of a polynomial map read from a JSON file."""

from ..ekl import ekl_class
from ..errors import InputDataError, json_dict, json_list, json_pairs, json_str
from ..fields import parse_field_label
from ..multipoly import MultiPoly
from . import load_json


def _polys_from_json(data) -> list:
    data = json_dict(data, "polynomial map")
    variables = tuple(json_str(v, "variable name") for v in json_list(data.get("vars"), '"vars"'))
    rows = json_list(data.get("polys"), '"polys"')
    polys = [MultiPoly(variables, json_pairs(row, "polynomial")) for row in rows]
    if len(set(variables)) != len(variables):
        raise InputDataError(f"duplicate variable names in {list(variables)}")
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
