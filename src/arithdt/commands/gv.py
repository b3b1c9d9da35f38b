"""``arithdt gv``: refined genus-bound invariants of the quintic, and their comparison."""

from ..castelnuovo import gv_compare
from ..fields import parse_field_label


def run(args) -> tuple:
    report = gv_compare(args.m, parse_field_label(args.field))
    rendered = report.direct.render()
    payload = {
        "m": report.m,
        "fiber_dim": report.fiber_dim,
        "direct": report.direct.to_json_dict(),
        "rendered": rendered,
        "rank": report.rank_direct,
    }
    lines = [f"m={report.m} (N={report.fiber_dim}): {rendered}"]
    if args.compare:
        payload["compare"] = {
            "closed": report.closed.to_json_dict() if report.closed else None,
            "closed_error": report.closed_error,
            "rank_closed": str(report.rank_closed),
            "ranks_agree": report.ranks_agree,
            "signatures_agree": report.signatures_agree,
            "gw_equal": report.gw_equal_verdict,
            "alpha_factor_match": report.alpha_factor_match,
            "description": report.description,
        }
        lines.append(report.description)
    return payload, lambda: "\n".join(lines)
