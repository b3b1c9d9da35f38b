"""The CLI's JSON writer: ``json.dumps(value, sort_keys=True, indent=2)`` text,
written in bounded pieces.

Imported only by jobs that write JSON (``--json`` or ``--out``), so a job with
text output compiles neither this module nor the ``json`` package.  Strings are
escaped by ``_json``'s C encoder, the very function that ``json.encoder``
exports, so a job that writes JSON but reads none loads no ``json`` package
either; ``json.encoder``'s pure-Python encoder stands in where ``_json`` is
missing.
"""

from __future__ import annotations

from itertools import chain

try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

_BATCH_CHARS = 1 << 16  # pending text written to the stream at once
_RUN = 256  # list items formatted by one C-level join or %-format


def write_json(stream, value) -> None:
    """Write ``json.dumps(value, sort_keys=True, indent=2) + "\\n"`` to ``stream``.

    The text is made in pieces and written in batches of about 64 KB, so the
    whole text is never held.  Lists are taken in runs of ``_RUN`` items: a
    run of ints, or of equal-length lists of ints (every ``u_coeffs`` and
    ``terms`` array), is formatted by one ``join`` or ``%`` at C speed.  The
    domain is dict (with str keys), list, tuple, str, int, bool and None;
    anything else, floats included, raises TypeError.  An int of more than
    ``sys.get_int_max_str_digits()`` digits raises the ValueError that
    ``json.dumps`` raises.
    """
    pending = []
    size = 0

    def put(piece: str) -> None:
        nonlocal size
        pending.append(piece)
        size += len(piece)
        if size >= _BATCH_CHARS:
            stream.write("".join(pending))
            pending.clear()
            size = 0

    def write(v, nl: str) -> None:  # nl: newline and indent of v's own line
        text = _scalar_text(v)
        if text is not None:
            put(text)
        elif isinstance(v, dict):
            if not v:
                put("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for key, item in sorted(v.items()):
                put(sep + encode_basestring_ascii(key) + ": ")
                write(item, inner)
                sep = "," + inner
            put(nl + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                put("[]")
                return
            inner = nl + "  "
            sep = "," + inner
            put("[" + inner)
            for start in range(0, len(v), _RUN):
                if start:
                    put(sep)
                run = v[start:start + _RUN]
                text = _int_run_text(run, inner)
                if text is not None:
                    put(text)
                    continue
                for i, item in enumerate(run):
                    if i:
                        put(sep)
                    write(item, inner)
            put(nl + "]")
        else:
            raise TypeError(f"cannot write {type(v).__name__} as JSON: "
                            "payloads hold only dict, list, tuple, str, int, bool and None")

    write(value, "\n")
    put("\n")
    stream.write("".join(pending))


def _scalar_text(v) -> str | None:
    """JSON text of a str, None, bool or int, as ``json.dumps`` writes it; None otherwise."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    return None


def _int_run_text(run, inner: str) -> str | None:
    """A run of list items joined by ``,`` + ``inner``, if they are all ints or all
    equal-length lists of ints; None otherwise.  Exact types are compared, as a
    bool is an int that ``%d`` and ``int.__repr__`` would write as 1 or 0."""
    kinds = set(map(type, run))
    if kinds == {int}:
        return ("," + inner).join(map(int.__repr__, run))
    if kinds <= {list, tuple}:
        widths = set(map(len, run))
        width = widths.pop()
        if width and not widths:
            flat = tuple(chain.from_iterable(run))
            if set(map(type, flat)) == {int}:
                return _rows_format(width, len(run), inner) % flat
    return None


def _rows_format(width: int, count: int, inner: str) -> str:
    """%-template of ``count`` rows of ``width`` ints, each row one indent deeper than ``inner``."""
    cell = inner + "  "
    row = "[" + cell + ("," + cell).join(["%d"] * width) + inner + "]"
    return ("," + inner).join([row] * count)
