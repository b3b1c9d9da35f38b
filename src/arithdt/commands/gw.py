"""``arithdt gw``: Grothendieck-Witt ring operations on parsed expressions."""

import re
import sys

from ..errors import InputDataError, brief
from ..fields import parse_field_label
from ..gw import GwElement, diagonalize_symmetric
from ..squares import square_class_rep

# one signed term: [+|-] [n*] (H | <rational>); the sign is required after the first.
# ``re`` caches the compiled pattern, compiled by the first parse, not at import.
_GW_TERM = r"\s*([+-])?\s*(?:(\d+)\s*\*\s*)?(?:(H)|<\s*(-?\d+(?:/\d+)?)\s*>)\s*"


def parse_gw(text: str, field) -> GwElement:
    """Parse '3*<1> + 2*<-1> - H' style expressions into a GwElement; blank or '0' is zero.

    An integer rep is passed on as an int, so it makes no Fraction; a rep
    with a '/', or with more digits than int() reads, as its text.
    """
    if text.strip() in ("", "0"):
        return GwElement(field)
    term = re.compile(_GW_TERM)
    pairs = []
    pos = 0
    while pos < len(text):
        match = term.match(text, pos)
        if not match or (pos and not match.group(1)):
            raise InputDataError(f"cannot parse GW expression at: {brief(text[pos:])}")
        sign, coeff, hyperbolic, rep = match.groups()
        try:
            c = int(coeff or 1)
        except ValueError:  # more digits than int() reads
            limit = sys.get_int_max_str_digits()
            raise InputDataError(f"GW coefficient has {len(coeff)} digits, more than {limit}") from None
        c = -c if sign == "-" else c
        if rep is not None and "/" not in rep:
            try:
                rep = int(rep)
            except ValueError:  # too long: square_class_rep refuses the text with its own error
                pass
        if hyperbolic:
            pairs += [(1, c), (-1, c)]
        elif c:
            pairs.append((rep, c))
        else:  # GwElement would not read the rep of a zero term: refuse a bad one here
            square_class_rep(field, rep)
        pos = match.end()
    return GwElement(field, pairs)


def _parse_matrix(text: str) -> list:
    """JSON rows; ``diagonalize_symmetric`` reads each entry as an exact rational."""
    import json

    try:
        rows = json.loads(text)
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("expected a JSON list of rows")
        return rows
    except (ValueError, RecursionError) as exc:
        raise InputDataError(f"malformed --matrix: {exc}") from exc


def run(args) -> tuple:
    field = parse_field_label(args.field)
    a = parse_gw(args.a, field)
    op = args.op
    if op in ("add", "mul", "sub", "equal"):
        if args.b is None:
            raise InputDataError(f"--b is required for op {op}")
        b = parse_gw(args.b, field)
        if op == "add":
            value = a + b
        elif op == "sub":
            value = a - b
        elif op == "mul":
            value = a * b
        else:
            verdict = a.gw_equal(b)
            return {"equal": verdict}, lambda: str(verdict).lower()
        text = value.render(contract_h=args.contract_h)
        return {"value": value.to_json_dict(), "rendered": text}, lambda: text
    if op == "rank":
        rank = a.rank()
        return {"rank": rank}, lambda: str(rank)
    if op == "signature":
        signature = a.signature()
        return {"signature": signature}, lambda: str(signature)
    if op == "discriminant":
        disc = a.discriminant()
        return {"discriminant": disc.rep}, lambda: f"<{disc.rep}>"
    if op == "diagonalize":
        if args.matrix is None:
            raise InputDataError("--matrix is required for op diagonalize")
        value = diagonalize_symmetric(_parse_matrix(args.matrix), field)
        text = value.render(contract_h=args.contract_h)
        return {"value": value.to_json_dict(), "rendered": text}, lambda: text
    raise InputDataError(f"unknown gw op {op!r}")
