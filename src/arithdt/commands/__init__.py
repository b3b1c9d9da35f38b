"""One module per ``arithdt`` subcommand, each loaded only by its own job.

A module is named by its subcommand (``dt_a3`` for ``dt-a3``).  ``cli.dispatch``
imports the one module of the job's subcommand and calls its ``run(args)``,
which returns the JSON payload and a function making the text: ``cli._emit``
calls that function only in text mode.  A module imports, at its top, the
library modules its job computes with, and keeps the helpers only it uses, so
a job compiles no other subcommand's code (``JOBS``, tests/test_package.py).
"""

from ..errors import InputDataError


def load_json(path: str):
    """The JSON document in the file ``path``; ``json`` is imported only here."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise InputDataError(f"cannot read JSON from {path}: {exc}") from exc
