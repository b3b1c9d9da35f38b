"""``arithdt ekl``: the local degree of a polynomial map read from a JSON file."""

from ..ekl import ekl_class
from ..errors import InputDataError
from ..fields import parse_field_label
from ..multipoly import MultiPoly
from . import load_json


def _polys_from_json(data) -> list:
    if not isinstance(data, dict):
        raise InputDataError("malformed polynomial payload: the top level must be a JSON object")
    try:
        variables, rows = data["vars"], data["polys"]
    except KeyError as exc:
        raise InputDataError(f"malformed polynomial payload: {exc}") from exc
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise InputDataError('malformed polynomial payload: "vars" must be a JSON list of strings')
    if not isinstance(rows, list):
        raise InputDataError('malformed polynomial payload: "polys" must be a JSON list')
    variables = tuple(variables)
    try:
        polys = [MultiPoly(variables, pairs) for pairs in rows]
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
