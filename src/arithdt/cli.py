"""Command-line front end: subcommand table, argv reading, dispatch, output.

Exit codes: 0 on success, 1 on a domain error (ArithdtError), 2 on usage
errors (argparse).  All numeric payloads are exact -- rationals are
serialized as strings, never floats -- and output bytes are deterministic
for fixed inputs and package version.  When writing to a file, a manifest
describing the invocation is written next to it; JSON written to stdout
embeds the same manifest.

Each subcommand's handler is the ``run`` of its own module in
``arithdt.commands``, named by the subcommand (``dt_a3`` for ``dt-a3``), which
``dispatch`` imports for that job alone: a job compiles no other
subcommand's code, and the handler imports what it computes with.  The
``json`` package is imported only where JSON is read (the ``--map`` of
``ekl``, the ``--data`` of ``nearby`` and the ``--matrix`` of ``gw --op
diagonalize``), and the JSON writer (``jsonout``) and the manifest only where
JSON is written; the writer escapes strings with ``_json``'s C encoder, so a
job that writes JSON but reads none loads no ``json`` package.  ``JOBS`` in
tests/test_package.py lists the modules each command line loads.  ``main``
is the process entry point, which ends the process at its answer, with no
interpreter teardown; ``dispatch`` runs one command line for a caller in the
same process.

One table, ``COMMANDS``, describes every subcommand: its help and its
options.  It builds the argparse parser, and it feeds ``strict_args``, which
reads a well-formed command line, a subcommand's positional choice
included, into the namespace argparse would make, and answers
``--version`` alone, without importing argparse.  Every other command line
(``--help``, an abbreviation, ``--opt=value``, any usage error) goes to
argparse, so help, usage and error bytes are argparse's own.
"""

from __future__ import annotations

import contextlib
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from . import __version__
from .errors import ArithdtError, InputDataError, IntegerTooLongError


def _emit(args, payload: dict, text) -> None:
    """Write ``payload`` as JSON (to ``--out`` or, with ``--json``, to stdout), or
    else the string that ``text()`` makes: the text is built only when printed.
    JSON carries a manifest of the run, made of ``args`` only here."""
    if not (args.json or args.out is not None):
        sys.stdout.write(text() + "\n")
        return
    from .jsonout import write_json

    manifest = {
        "subcommand": args.subcommand,
        "parameters": {key: value for key, value in sorted(vars(args).items())
                       if key not in ("subcommand", "json", "out") and value is not None},
        "artifact_version": __version__,
        "outputs": [args.out or "stdout"],
    }
    if not args.out:
        write_json(sys.stdout, {**payload, "manifest": manifest})
        return
    written = []
    try:
        for path, value in ((args.out, payload), (args.out + ".manifest.json", manifest)):
            with open(path, "w", encoding="utf-8") as fh:
                written.append(path)
                write_json(fh, value)
    except BaseException as exc:
        for path in written:  # no partial answer is left behind
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise InputDataError(f"cannot write {args.out}: {exc}") from exc
        raise


_COMMON = (
    ("--json", {"action": "store_true", "help": "emit JSON to stdout"}),
    ("--out", {"help": "write JSON payload to this path (with manifest)"}),
)

# subcommand -> (help, options): each option is the name and keywords of one
# add_argument call, in the order build_parser makes them
COMMANDS = {
    "gw": ("Grothendieck-Witt ring operations", (
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
    "dt-a3": ("degree-zero DT partition function of affine 3-space", (
        ("--order", {"type": int, "required": True}),
        ("--output", {"default": "complex", "choices": ["motivic", "arithmetic", "complex", "real"]}),
        ("--field", {"default": "Q"}),
        *_COMMON,
    )),
    "ekl": ("local degree of a polynomial map at the origin", (
        ("--map", {"required": True, "help": "JSON file with vars and polys"}),
        ("--field", {"default": "Q"}),
        ("--contract-h", {"action": "store_true", "dest": "contract_h"}),
        *_COMMON,
    )),
    "nearby": ("nearby class from SNC stratification data", (
        ("--data", {"required": True, "help": "JSON file with dim, strata, x0_class"}),
        ("--local", {"action": "store_true", "help": "treat classes as fiber data"}),
        *_COMMON,
    )),
    "gv": ("refined genus-bound invariants of the quintic", (
        ("--m", {"type": int, "required": True}),
        ("--compare", {"action": "store_true"}),
        ("--field", {"default": "Q"}),
        *_COMMON,
    )),
    "oracle": ("brute-force plane partition counts", (
        ("kind", {"choices": ["pp", "spp"]}),
        ("--n", {"type": int, "required": True}),
        *_COMMON,
    )),
    "selftest": ("run the built-in invariant suite", _COMMON),
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
    for name, (help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, keywords in options:
            p.add_argument(option, **keywords)
    return parser


def strict_args(argv: list):
    """The namespace argparse makes of a well-formed ``argv``, or None.

    Well-formed is: a subcommand, then, in any order, exact names of its
    options, each at most once, each value not starting with '-' unless it
    starts with '- ' (a signed expression), and one token not starting
    with '-' for each of its positionals; every positional and required
    option present, and every choice and int valid.  Anything else (help,
    an abbreviation, --opt=value, a value that looks like an option or a
    negative number, a stray token, every error) is argparse's to read.
    ``--version`` alone is answered here, with argparse's stdout and exit
    status.
    """
    if argv == ["--version"]:
        print(__version__)  # argparse's version action writes this line to stdout, then exits 0
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][1]
    keywords = dict(options)
    positionals = (option for option, _ in options if not option.startswith("-"))
    given = {}
    rest = iter(argv[1:])
    for token in rest:
        if token.startswith("-"):
            option, kw = token, keywords.get(token)
            if kw is None or option in given:
                return None
            if kw.get("action") == "store_true":
                given[option] = True
                continue
            value = next(rest, None)
            # argparse reads a token with a space as a value, so "- 3*<1>" is one
            if value is None or value.startswith("-") and not value.startswith("- "):
                return None
        else:  # argparse gives a positional token to the first positional not yet filled
            option = next(positionals, None)
            if option is None:
                return None
            kw, value = keywords[option], token
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
        positional = not option.startswith("-")
        if option not in given and (positional or kw.get("required")):
            return None
        default = kw.get("default", False if kw.get("action") == "store_true" else None)
        dest = kw.get("dest", option if positional else option[2:].replace("-", "_"))
        args[dest] = given.get(option, default)
    return SimpleNamespace(**args)


def dispatch(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = strict_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    handler = import_module(".commands." + args.subcommand.replace("-", "_"), __package__)
    try:
        payload, text = handler.run(args)
        _emit(args, payload, text)
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
    """The process entry point: ``dispatch`` the command line, then end the process.

    Once the answer and its error line are flushed, nothing is left to do, so
    the process ends with ``os._exit``: no module teardown, no freeing and no
    ``atexit`` handler.  The ``SystemExit`` of argparse and of ``--version``
    leaves the same way, with its code.  A reader that closes stdout early
    ends the job with exit 1 and no traceback, as the Python docs advise for
    SIGPIPE.  Any other exception leaves as Python ends it, with a traceback
    and exit 1.  ``dispatch`` keeps the interpreter, for callers in a process
    that goes on.
    """
    try:
        try:
            status = dispatch()
        except SystemExit as exc:  # usage errors, --help and --version
            status = exc.code
        sys.stdout.flush()  # a closed pipe shows here
    except BrokenPipeError:
        status = 1  # nothing more reaches the reader
    sys.stderr.flush()
    os._exit(status)
