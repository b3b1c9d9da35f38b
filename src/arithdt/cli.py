"""Command-line front end: subcommand dispatch, JSON readers, run manifests.

Exit codes: 0 on success, 1 on a domain error (ArithdtError), 2 on usage
errors (argparse).  All numeric payloads are exact -- rationals are
serialized as strings, never floats -- and output bytes are deterministic
for fixed inputs and package version.  When writing to a file, a manifest
describing the invocation is written next to it; JSON written to stdout
embeds the same manifest.

Only the modules that parsing and dispatch need are imported here; each
handler imports what it computes with (``gw`` only for a gw job, and a
dt-a3 job only the modules of the series it prints), ``json`` is imported
where JSON is read, and the JSON writer (``jsonout``) where JSON is
written, so a job loads no other module.  ``main`` is the process entry
point; ``dispatch`` runs one command line for a caller in the same process.

One table, ``COMMANDS``, holds every subcommand's options.  It builds the
argparse parser, and it feeds ``strict_args``, which reads a well-formed
command line into the namespace argparse would make, without importing
argparse.  Every other command line (``--help``, ``--version``, an
abbreviation, ``--opt=value``, any usage error) goes to argparse, so help,
usage and error bytes are argparse's own.
"""

from __future__ import annotations

import contextlib
import gc
import os
import re
import sys
from types import SimpleNamespace

from . import __version__
from .errors import ArithdtError, InputDataError, IntegerTooLongError, brief
from .fields import QQ, parse_field_label, square_class_rep

DEFAULT_MAX_ORDER = 30


def max_series_order() -> int:
    raw = os.environ.get("ARITHDT_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise InputDataError(f"ARITHDT_MAX_ORDER must be an integer, got {brief(raw)}") from None
    if value < 1:
        raise InputDataError("ARITHDT_MAX_ORDER must be positive")
    return value


def _emit(args, manifest: dict, payload: dict, text) -> None:
    """Write ``payload`` as JSON (to ``--out`` or, with ``--json``, to stdout), or
    else the string that ``text()`` makes: the text is built only when printed."""
    out_path = getattr(args, "out", None)
    as_json = getattr(args, "json", False) or out_path is not None
    if as_json:
        from .jsonout import write_json
    if out_path:
        manifest["outputs"].append(out_path)
        written = []
        try:
            for path, value in ((out_path, payload), (out_path + ".manifest.json", manifest)):
                with open(path, "w", encoding="utf-8") as fh:
                    written.append(path)
                    write_json(fh, value)
        except BaseException as exc:
            for path in written:  # no partial answer is left behind
                with contextlib.suppress(OSError):
                    os.remove(path)
            if isinstance(exc, OSError):
                raise InputDataError(f"cannot write {out_path}: {exc}") from exc
            raise
        return
    manifest["outputs"].append("stdout")
    if as_json:
        payload = dict(payload)
        payload["manifest"] = manifest
        write_json(sys.stdout, payload)
    else:
        sys.stdout.write(text() + "\n")


# -- GW expression parsing -------------------------------------------------------

# one signed term: [+|-] [n*] (H | <rational>); the sign is required after the first
_GW_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+)\s*\*\s*)?(?:(H)|<\s*(-?\d+(?:/\d+)?)\s*>)\s*")


def parse_gw(text: str, field):
    """Parse '3*<1> + 2*<-1> - H' style expressions into a GwElement; blank or '0' is zero."""
    from .gw import GwElement

    if text.strip() in ("", "0"):
        return GwElement(field)
    pairs = []
    pos = 0
    while pos < len(text):
        match = _GW_TERM.match(text, pos)
        if not match or (pos and not match.group(1)):
            raise InputDataError(f"cannot parse GW expression at: {brief(text[pos:])}")
        sign, coeff, hyperbolic, rep = match.groups()
        try:
            c = int(coeff or 1)
        except ValueError:  # more digits than int() reads
            limit = sys.get_int_max_str_digits()
            raise InputDataError(f"GW coefficient has {len(coeff)} digits, more than {limit}") from None
        c = -c if sign == "-" else c
        if hyperbolic:
            pairs += [(1, c), (-1, c)]
        elif c:
            pairs.append((rep, c))
        else:  # GwElement would not read the rep of a zero term: refuse a bad one here
            square_class_rep(field, rep)
        pos = match.end()
    return GwElement(field, pairs)


def _released(items: list):
    """Yield the items of ``items`` in order, dropping each from the list as it is
    yielded: a consumer that keeps only what it builds holds one raw item at a time."""
    items.reverse()
    while items:
        yield items.pop()


def _load_json(path: str):
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise InputDataError(f"cannot read JSON from {path}: {exc}") from exc


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


def _polys_from_json(data: dict) -> list:
    from .multipoly import MultiPoly

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


# -- subcommand handlers ---------------------------------------------------------

_Answer = tuple  # (JSON payload, function making the text): ``_emit`` calls it only in text mode


def _cmd_gw(args) -> _Answer:
    from .gw import diagonalize_symmetric

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


def _cmd_dt_a3(args) -> _Answer:
    from . import dt

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


def _cmd_ekl(args) -> _Answer:
    from .ekl import ekl_class

    system = _polys_from_json(_load_json(args.map))
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


def _cmd_nearby(args) -> _Answer:
    from .motivic import chi_a1
    from .nearby import SncData, local_nearby_class, nearby_class, virtual_class_critical_locus

    tree = _load_json(args.data)
    if isinstance(tree, dict) and isinstance(tree.get("strata"), list):
        # each raw stratum is freed once its record is built
        tree["strata"] = _released(tree["strata"])
    data = SncData.from_json_dict(tree)
    del tree
    cls = local_nearby_class(data) if args.local else nearby_class(data)
    x0, dim = data.central_fiber_class, data.ambient_dimension
    del data  # the records are not read again
    virt = None
    if x0 is not None and not args.local:
        virt = virtual_class_critical_locus(cls, x0, dim)
    key = "local_nearby_class" if args.local else "nearby_class"
    rendered = cls.render()
    payload = {key: cls.to_json_dict(), "rendered": rendered}
    if virt is not None:
        payload["virtual_class"] = virt.to_json_dict()
    a1 = chi_a1(cls, QQ)
    payload["euler"] = {
        "complex": a1.numeric_complex(),
        "real": a1.numeric_real().to_json_dict(),
        "a1": a1.to_json_dict(),
    }

    def text() -> str:
        if virt is None:
            return f"{key}: {rendered}"
        return f"{key}: {rendered}\nvirtual_class: {virt.render()}"

    return payload, text


def _cmd_gv(args) -> _Answer:
    from .castelnuovo import gv_compare

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


def _cmd_oracle(args) -> _Answer:
    from .partitions import count_plane_partitions, count_symmetric_plane_partitions

    if args.kind == "pp":
        value = count_plane_partitions(args.n)
    else:
        value = count_symmetric_plane_partitions(args.n)
    return {"kind": args.kind, "n": args.n, "count": value}, lambda: str(value)


def _cmd_selftest(args) -> _Answer:
    from .selftest import run_selftest

    report = run_selftest()
    lines = [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in report]
    ok = all(flag for _, flag in report)
    lines.append("selftest: " + ("all checks passed" if ok else "FAILURES PRESENT"))
    if not ok:
        raise ArithdtError("\n".join(lines))
    return {"checks": [{"name": n, "ok": o} for n, o in report]}, lambda: "\n".join(lines)


_COMMON = (
    ("--json", {"action": "store_true", "help": "emit JSON to stdout"}),
    ("--out", {"help": "write JSON payload to this path (with manifest)"}),
)

# subcommand -> (help, handler, options); each option is the name and keywords of
# one add_argument call, in the order build_parser makes them
COMMANDS = {
    "gw": ("Grothendieck-Witt ring operations", _cmd_gw, (
        ("--op", {"required": True,
                  "choices": ["add", "sub", "mul", "equal", "rank", "signature",
                              "discriminant", "diagonalize"]}),
        ("--a", {"default": "0", "help": "GW expression, e.g. '3*<1> + 2*<-1>' or 'H'"}),
        ("--b", {"help": "second GW expression"}),
        ("--matrix", {"help": "JSON rows of a symmetric rational matrix"}),
        ("--field", {"default": "Q", "help": "Q, R, C, or Fp (e.g. F5)"}),
        ("--contract-h", {"action": "store_true", "dest": "contract_h"}),
        *_COMMON,
    )),
    "dt-a3": ("degree-zero DT partition function of affine 3-space", _cmd_dt_a3, (
        ("--order", {"type": int, "required": True}),
        ("--output", {"default": "complex", "choices": ["motivic", "arithmetic", "complex", "real"]}),
        ("--field", {"default": "Q"}),
        *_COMMON,
    )),
    "ekl": ("local degree of a polynomial map at the origin", _cmd_ekl, (
        ("--map", {"required": True, "help": "JSON file with vars and polys"}),
        ("--field", {"default": "Q"}),
        ("--contract-h", {"action": "store_true", "dest": "contract_h"}),
        *_COMMON,
    )),
    "nearby": ("nearby class from SNC stratification data", _cmd_nearby, (
        ("--data", {"required": True, "help": "JSON file with dim, strata, x0_class"}),
        ("--local", {"action": "store_true", "help": "treat classes as fiber data"}),
        *_COMMON,
    )),
    "gv": ("refined genus-bound invariants of the quintic", _cmd_gv, (
        ("--m", {"type": int, "required": True}),
        ("--compare", {"action": "store_true"}),
        ("--field", {"default": "Q"}),
        *_COMMON,
    )),
    "oracle": ("brute-force plane partition counts", _cmd_oracle, (
        ("kind", {"choices": ["pp", "spp"]}),
        ("--n", {"type": int, "required": True}),
        *_COMMON,
    )),
    "selftest": ("run the built-in invariant suite", _cmd_selftest, _COMMON),
}


def build_parser():
    """The argparse parser: it reads every command line that ``strict_args`` does not."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="arithdt",
        description="Exact Grothendieck-Witt / motivic computations and refined DT-type counts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, handler, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, keywords in options:
            p.add_argument(option, **keywords)
        p.set_defaults(handler=handler)
    return parser


def strict_args(argv: list):
    """The namespace argparse makes of a well-formed ``argv``, or None.

    Well-formed is: a subcommand with no positional argument, then exact
    names of its options, each at most once, each value not starting with
    '-', every required option present, and every choice and int valid.
    Anything else (help, --version, an abbreviation, --opt=value, a value
    that looks like an option, every error) is argparse's to read.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, options = COMMANDS[argv[0]]
    keywords = dict(options)
    given = {}
    rest = iter(argv[1:])
    for option in rest:
        kw = keywords.get(option)
        if kw is None or option in given:
            return None
        if kw.get("action") == "store_true":
            given[option] = True
            continue
        value = next(rest, None)
        if value is None or value.startswith("-"):
            return None
        if kw.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[option] = value
    args = {"subcommand": argv[0]}
    for option, kw in options:
        if not option.startswith("--") or (kw.get("required") and option not in given):
            return None
        default = kw.get("default", False if kw.get("action") == "store_true" else None)
        args[kw.get("dest", option[2:].replace("-", "_"))] = given.get(option, default)
    args["handler"] = handler
    return SimpleNamespace(**args)


def _manifest_parameters(args) -> dict:
    skip = {"handler", "subcommand", "json", "out"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }


def dispatch(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = strict_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    manifest = {
        "subcommand": args.subcommand,
        "parameters": _manifest_parameters(args),
        "artifact_version": __version__,
        "outputs": [],
    }
    try:
        payload, text = args.handler(args)
        _emit(args, manifest, payload, text)
    except ArithdtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # str() of an answer's int past sys.get_int_max_str_digits(), in any handler
        # or in the JSON writer; JSON batches already on stdout stay
        if not str(exc).startswith("Exceeds the limit"):
            raise
        print(f"error: {IntegerTooLongError()}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    """The process entry point: ``dispatch`` the command line, then exit.

    What is alive when ``dispatch`` ends lives until exit, so ``gc.freeze``
    takes it out of the collections of interpreter shutdown, which would
    otherwise walk every imported module's objects.  ``dispatch`` leaves the
    collector alone, for callers in a process that goes on.  A reader that
    closes stdout early ends the job with exit 1 and no traceback, as the
    Python docs advise for SIGPIPE.
    """
    try:
        status = dispatch()
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
    except BrokenPipeError:
        # nothing more reaches the reader: let the flush at shutdown go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        status = 1
    finally:
        gc.freeze()
    sys.exit(status)
