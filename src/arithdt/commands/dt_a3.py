"""``arithdt dt-a3``: the degree-zero DT series of affine 3-space, up to an order cap.

Only ``dt`` is imported here; ``dt`` imports the modules of the one series
the job prints.
"""

import os

from .. import dt
from ..errors import InputDataError, text_int
from ..fields import parse_field_label

DEFAULT_MAX_ORDER = 30


def max_series_order() -> int:
    raw = os.environ.get("ARITHDT_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    value = text_int(raw, "ARITHDT_MAX_ORDER")
    if value < 1:
        raise InputDataError("ARITHDT_MAX_ORDER must be positive")
    return value


def run(args) -> tuple:
    cap = max_series_order()
    if args.order > cap:
        raise InputDataError(f"order {args.order} exceeds the cap {cap} (ARITHDT_MAX_ORDER)")
    field = parse_field_label(args.field)  # checked even when the series does not read it
    if args.output == "arithmetic":
        series = dt.z_arithmetic(args.order, field)
    else:
        series = getattr(dt, f"z_{args.output}")(args.order)

    def text() -> str:
        if args.output == "complex":
            return ", ".join(str(c) for c in series.coeffs)
        return "\n".join(f"t^{n}: {c}" for n, c in enumerate(series.coeffs))

    return {"series": series.to_json_dict()}, text
