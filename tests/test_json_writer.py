"""The CLI's JSON writer: the text of ``json.dumps(v, sort_keys=True, indent=2)``
plus a newline, written to the stream in bounded pieces.  Its domain is dicts
with str keys, lists, tuples, str, int, bool and None.

``json.dumps`` is the oracle, for generated values and for every subcommand's
``--json`` stdout and ``--out`` files.
"""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from arithdt import jsonout
from arithdt.cli import dispatch
from arithdt.jsonout import write_json


def written(value) -> str:
    stream = io.StringIO()
    write_json(stream, value)
    return stream.getvalue()


def dumped(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


SMALL_VALUES = [
    0, 1, -1, True, False, None, "", "a\"b\\c\n\t\x00é€😀", {}, [], (), [[]], [{}],
    [0, 1, True, False], [[1, True]], [[0, 1], (2, 3), [4, 5]], [[1], [2, 3], []],
    {"b": [1, 2], "a": {"c": None}}, {"": [None], "\u00e9": {}},
    [[1, "a"], [2, "b"]], [10**4000, -(10**4000)],
]


def test_small_values_match_json_dumps():
    for value in SMALL_VALUES:
        assert written(value) == dumped(value), value


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's _json accelerator")
def test_strings_are_escaped_by_the_encoder_json_uses():
    # the writer takes it from _json, so a job that reads no JSON loads no json package
    assert jsonout.encode_basestring_ascii is json.encoder.encode_basestring_ascii


# writes SMALL_VALUES (the literal in argv[1]) with no _json: both the writer and
# json.dumps fall back to json.encoder's pure-Python code
_WITHOUT_C_ENCODER = """
import ast, io, sys
sys.modules["_json"] = None
import json
from arithdt import jsonout
assert json.encoder.c_make_encoder is None
assert jsonout.encode_basestring_ascii is json.encoder.py_encode_basestring_ascii
for value in ast.literal_eval(sys.argv[1]):
    stream = io.StringIO()
    jsonout.write_json(stream, value)
    assert stream.getvalue() == json.dumps(value, sort_keys=True, indent=2) + "\\n", value
print("ok")
"""


def test_small_values_match_json_dumps_without_the_c_encoder():
    src = Path(jsonout.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_C_ENCODER, repr(SMALL_VALUES)],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 513, 1000])
def test_runs_of_ints_and_int_rows_cross_run_borders(rows):
    ints = list(range(-rows, rows))
    pairs = [[e, (-1) ** e * e] for e in range(rows)]
    triples = [(e, e + 1, -e) for e in range(rows)]
    # a bool, a str or a short row inside a run sends that run the slow way
    mixed = pairs[:]
    mixed[rows // 2] = [rows, True]
    ragged = pairs[:]
    ragged[-1] = [1, 2, 3]
    value = {"i": ints, "p": pairs, "t": triples, "m": mixed, "r": ragged,
             "n": [{"u_coeffs": pairs}] * 3}
    assert written(value) == dumped(value)


def test_output_is_written_in_bounded_batches():
    pairs = [[e, e % 7 - 3] for e in range(40_000)]
    sizes = []

    class Stream:
        def write(self, text):
            sizes.append(len(text))

    write_json(Stream(), {"u_coeffs": pairs})
    assert sum(sizes) == len(dumped({"u_coeffs": pairs})) > 1_000_000
    # each batch is about 64 KB: one run past the threshold, never the whole text
    assert len(sizes) > 10 and max(sizes) < 2 * jsonout._BATCH_CHARS


def test_a_float_or_a_key_that_is_not_a_str_raises_type_error():
    for value in (0.5, [1, 2.0], {"a": [[1, 1.5]]}, {"a": object()}, {1: "x"}, {None: 1}):
        with pytest.raises(TypeError):
            written(value)


def test_an_int_past_the_digit_limit_raises_as_json_dumps_does():
    big = 10 ** sys.get_int_max_str_digits()
    for value in (big, [big], [[1, big]], {"a": [3, -big]}):
        with pytest.raises(ValueError) as expected:
            dumped(value)
        with pytest.raises(ValueError) as got:
            written(value)
        assert str(got.value) == str(expected.value)


SNC = {"dim": 2, "strata": [
    {"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": [[0, -1], [2, 1]]}},
    {"I": [2], "mult": {"2": 1}, "class": {"u_coeffs": [[0, -1], [2, 1]]}},
    {"I": [1, 2], "mult": {"1": 1, "2": 1}, "class": {"u_coeffs": [[0, 1]]}}],
    "x0_class": {"u_coeffs": [[0, -1], [2, 2]]}}
MAP = {"vars": ["x", "y"], "polys": [[[[3, 0], "4"]], [[[0, 3], "4"]]]}

SUBCOMMANDS = {
    "gw-mul": ["gw", "--op", "mul", "--a", "<2> + 3*<-3>", "--b", "<6> - <1>"],
    "gw-equal": ["gw", "--op", "equal", "--a", "<2> + <-2>", "--b", "H"],
    "gw-diagonalize": ["gw", "--op", "diagonalize", "--matrix", "[[0,1],[1,0]]", "--field", "F5"],
    "dt-a3-motivic": ["dt-a3", "--order", "8", "--output", "motivic"],
    "dt-a3-arithmetic": ["dt-a3", "--order", "6", "--output", "arithmetic"],
    "dt-a3-real": ["dt-a3", "--order", "6", "--output", "real", "--field", "R"],
    "ekl": ["ekl", "--map", "{map}"],
    "nearby": ["nearby", "--data", "{snc}"],
    "nearby-local": ["nearby", "--data", "{snc}", "--local"],
    "gv": ["gv", "--m", "2", "--compare"],
    "oracle": ["oracle", "spp", "--n", "6"],
    "selftest": ["selftest"],
}


@pytest.mark.parametrize("argv", SUBCOMMANDS.values(), ids=SUBCOMMANDS.keys())
def test_every_subcommand_writes_what_json_dumps_writes(argv, tmp_path, capsys):
    (tmp_path / "snc.json").write_text(json.dumps(SNC))
    (tmp_path / "map.json").write_text(json.dumps(MAP))
    files = {"{snc}": str(tmp_path / "snc.json"), "{map}": str(tmp_path / "map.json")}
    argv = [files.get(arg, arg) for arg in argv]
    assert dispatch(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert out == dumped(json.loads(out))
    out_path = tmp_path / "result.json"
    assert dispatch(argv + ["--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    for path in (out_path, tmp_path / "result.json.manifest.json"):
        text = path.read_text(encoding="utf-8")
        assert text == dumped(json.loads(text))
    # the stdout payload is the file's payload with the manifest added
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert {k: v for k, v in json.loads(out).items() if k != "manifest"} == payload


# -- property ------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

INTS = st.one_of(st.integers(-3, 3), st.integers(), st.integers(-(10**300), 10**300))
SCALARS = st.one_of(INTS, st.booleans(), st.none(), st.text(max_size=12))
# runs of int rows, the shape of every u_coeffs and terms array
ROWS = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(INTS, min_size=width, max_size=width), max_size=300))
RAGGED = st.lists(st.lists(st.one_of(INTS, st.booleans()), max_size=4), max_size=40)
VALUES = st.recursive(
    st.one_of(SCALARS, ROWS, RAGGED, st.lists(INTS, max_size=600)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=6),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_written_text_is_json_dumps_text(value):
    assert written(value) == dumped(value)
