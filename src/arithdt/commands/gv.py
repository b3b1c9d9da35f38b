"""``arithdt gv``: refined genus-bound invariants of the quintic, and their comparison.

Without ``--compare`` the job computes only the direct class it prints; the
closed form and its ``gw_equal`` decisions are made only for ``--compare``.
"""

from ..castelnuovo import fiber_dimension, gv_arithmetic_direct, gv_compare
from ..fields import parse_field_label


def run(args) -> tuple:
    field = parse_field_label(args.field)
    report = gv_compare(args.m, field) if args.compare else None
    direct = report.direct if args.compare else gv_arithmetic_direct(args.m, field)
    fiber_dim = fiber_dimension(args.m)
    rendered = direct.render()
    payload = {
        "m": args.m,
        "fiber_dim": fiber_dim,
        "direct": direct.to_json_dict(),
        "rendered": rendered,
        "rank": direct.rank(),
    }
    lines = [f"m={args.m} (N={fiber_dim}): {rendered}"]
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
