"""``arithdt selftest``: the built-in invariant suite; a failed check exits 1."""

from ..errors import ArithdtError
from ..selftest import run_selftest


def run(args) -> tuple:
    report = run_selftest()
    lines = [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in report]
    ok = all(flag for _, flag in report)
    lines.append("selftest: " + ("all checks passed" if ok else "FAILURES PRESENT"))
    if not ok:
        raise ArithdtError("\n".join(lines))
    return {"checks": [{"name": n, "ok": o} for n, o in report]}, lambda: "\n".join(lines)
