"""The output contract: the bytes the CLI writes for pinned jobs and for bad input.

``perfbench/digests.json`` pins the output digest of every benchmark job with
a finite parameter space and of every job in the benchmark's first passes at
its default seed.  The same jobs are made again here with ``perfbench/jobs.py``
and run in this process through ``cli.dispatch``; each must exit 0 with the
pinned digest.  Both files are read where they are, so an output change made
on purpose is recorded once, with ``perfbench/make_digests.py``, and needs no
edit here.

``ERRORS`` pins the exit code and the whole of stderr of each refusal, with
the test's directory written as ``{tmp}``: a new refusal is one ``BAD_INPUT``
row and one ``ERRORS`` row, and each subcommand but ``selftest``, which reads
no input, has at least one.  Every row is a literal: no refusal is worded by
the running Python, and usage lines are made at a width where argparse wraps
none, as Python versions wrap them at different places.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from arithdt.cli import COMMANDS, dispatch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

sys.path.insert(0, str(PERFBENCH))  # jobs.py imports its oracles module by that name
try:
    import jobs
finally:
    sys.path.remove(str(PERFBENCH))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = dispatch(argv)
        except SystemExit as exc:  # a usage error, from argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_pinned_jobs_write_the_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("ARITHDT_MAX_ORDER", raising=False)
    pinned = json.loads((PERFBENCH / "digests.json").read_text())
    todo = {job.key: job for job in jobs.finite_jobs()}
    for workload in jobs.WORKLOADS:
        for batch in jobs.first_passes(workload, pinned["default_seed"], pinned["passes"]):
            todo.update((job.key, job) for job in batch)
    assert sorted(todo) == sorted(pinned["digests"])
    wrong = []
    for key, job in todo.items():
        job.write_files(str(tmp_path))
        code, out, err = _run(job.resolved_argv(str(tmp_path)))
        if code != 0 or jobs.output_digest(job.argv, out) != pinned["digests"][key]:
            wrong.append(f"{job.label} {' '.join(job.argv)}: exit {code} {err.strip()[:200]}")
    assert not wrong, f"{len(wrong)} of {len(todo)} pinned jobs changed:\n" + "\n".join(wrong)


NINES = 10**4300 - 1  # as many digits as str() writes: a sum of two has one more


def _stratum(index_set, mult):
    return {"I": index_set, "mult": mult, "class": {"u_coeffs": [[2, 1]]}}


def _snc(u_coeffs=((2, 1),), mult=1, dim=2):
    cls = {"u_coeffs": [list(t) for t in u_coeffs], "extras": {}}
    return {"dim": dim, "strata": [{"I": [1], "mult": {"1": mult}, "class": cls}]}


def _ekl_map(coeff=1, exponent=1):
    return {"vars": ["x"], "polys": [[[[exponent], coeff]]]}


# the input files of BAD_INPUT
FILES = {
    "bad.json": '{"vars": [',
    "deep.json": "[" * 100_000,  # nested past the JSON decoder's recursion limit
    "x0.json": json.dumps({"dim": 2, "x0_class": {"u_coeffs": [["1/2", 1]]}, "strata": []}),
    "not-square.json": json.dumps({"vars": ["x"], "polys": [[[[1], "1"]], [[[1], "1"]]]}),
    "repeated-index.json": json.dumps({"dim": 2, "strata": [_stratum([1, 1], {"1": 1})]}),
    "repeated-mult.json": json.dumps({"dim": 2, "strata": [_stratum([2], {"2": 1, "02": 1})]}),
    "repeated-both.json": json.dumps({"dim": 2, "strata": [_stratum([1, 1], {"1": 1, "01": 1})]}),
    "ekl-float-coeff.json": json.dumps(_ekl_map(coeff=0.1)),
    "ekl-bool-coeff.json": json.dumps(_ekl_map(coeff=True)),
    "ekl-zero-denominator.json": json.dumps(_ekl_map(coeff="1/0")),
    "ekl-float-exponent.json": json.dumps(_ekl_map(exponent=2.5)),
    "ekl-bool-exponent.json": json.dumps(_ekl_map(exponent=True)),
    "ekl-duplicate-vars.json": json.dumps({"vars": ["x", "x"], "polys": [[[[1, 0], 1]], [[[0, 1], 1]]]}),
    "nearby-float-coeff.json": json.dumps(_snc(u_coeffs=[(0, 1.5)])),
    "nearby-float-exponent.json": json.dumps(_snc(u_coeffs=[(0.9, 1)])),
    "nearby-bool-coeff.json": json.dumps(_snc(u_coeffs=[(0, False)])),
    "nearby-float-mult.json": json.dumps(_snc(mult=1.7)),
    "nearby-float-dim.json": json.dumps(_snc(dim=2.0)),
    "strata-object.json": json.dumps({"dim": 2, "strata": {"I": [1]}}),
    "strata-number.json": json.dumps({"dim": 2, "strata": 5}),
    "strata-string.json": json.dumps({"dim": 2, "strata": "ab"}),
    "strata-null.json": json.dumps({"dim": 2, "strata": None}),
    "stratum-is-a-list.json": json.dumps({"dim": 2, "strata": [[1]]}),
    "u_coeffs-is-a-number.json": json.dumps(
        {"dim": 2, "strata": [{"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": 5}}]}),
    "nearby-data-is-a-list.json": json.dumps([2, []]),
    "mult-is-a-list.json": json.dumps({"dim": 2, "strata": [_stratum([1], [1])]}),
    "mult-key-not-an-index.json": json.dumps({"dim": 2, "strata": [_stratum([1], {"a": 1})]}),
    "u_coeffs-term-of-one-item.json": json.dumps(_snc(u_coeffs=[(2,)])),
    "class-is-a-list.json": json.dumps(
        {"dim": 2, "strata": [{"I": [1], "mult": {"1": 1}, "class": [[2, 1]]}]}),
    "dim-missing.json": json.dumps({"strata": _snc()["strata"]}),
    "ekl-exponents-not-a-list.json": json.dumps({"vars": ["x"], "polys": [[[1, 1]]]}),
    "ekl-term-of-one-item.json": json.dumps({"vars": ["x"], "polys": [[[[1]]]]}),
    # answers with an int of more digits than str() writes
    "sum-of-two.json": json.dumps({"dim": 2, "strata": [
        {"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": [[0, NINES]]}},
        {"I": [2], "mult": {"2": 1}, "class": {"u_coeffs": [[0, NINES]]}}]}),
    "long-euler.json": json.dumps(_snc(u_coeffs=[(0, NINES), (2, NINES)])),
}

# id: (argv, ARITHDT_MAX_ORDER or None); an argv names an input file as {name}, the
# test's directory as {tmp}, and paths under it that are not there as {missing},
# {missing-dir} and {out}.  One refusal has no row: an answer past the digit limit from
# one stratum of |I| = 15,000 takes a second to sum, so test_cli.py alone pins its
# bytes, text and JSON, and it is not run twice.
BAD_INPUT = {
    "usage-missing-op": (["gw"], None),
    "usage-unknown-command": (["no-such-command"], None),
    "gw-mul-without-b": (["gw", "--op", "mul", "--a", "<2>"], None),
    "ekl-not-square": (["ekl", "--map", "{not-square.json}"], None),
    "ekl-missing-file": (["ekl", "--map", "{missing}"], None),
    "order-over-cap": (["dt-a3", "--order", "31", "--output", "complex"], None),
    "order-over-env-cap": (["dt-a3", "--order", "6", "--output", "complex"], "5"),
    "cap-not-an-integer": (["dt-a3", "--order", "2", "--output", "complex"], "oops"),
    "diagonalize-bad-json-matrix": (["gw", "--op", "diagonalize", "--matrix", "[[0,1],[1,0]"], None),
    "ekl-bad-json": (["ekl", "--map", "{bad.json}"], None),
    "nearby-bad-json": (["nearby", "--data", "{bad.json}"], None),
    "ekl-map-is-a-directory": (["ekl", "--map", "{tmp}"], None),
    "gw-zero-denominator": (["gw", "--op", "rank", "--a", "<1/0>"], None),
    "diagonalize-not-a-matrix": (["gw", "--op", "diagonalize", "--matrix", "5"], None),
    "nearby-half-power-x0": (["nearby", "--data", "{x0.json}"], None),
    "out-in-missing-dir": (["gw", "--op", "rank", "--a", "<2>", "--out", "{missing-dir}"], None),
    "ekl-deep": (["ekl", "--map", "{deep.json}"], None),
    "nearby-deep": (["nearby", "--data", "{deep.json}"], None),
    "diagonalize-deep-text": (["gw", "--op", "diagonalize", "--matrix", "[" * 100_000], None),
    "gw-long-coefficient": (["gw", "--op", "rank", "--a", "9" * 5000 + "*<1>"], None),
    "long-field": (["gw", "--op", "rank", "--a", "<2>", "--field", "F" + "7" * 5000], None),
    "long-cap": (["dt-a3", "--order", "3"], "7" * 5000),
    "long-gw": (["gw", "--op", "rank", "--a", "<" + "1" * 4999], None),
    "long-nonunit": (["gw", "--op", "rank", "--a", "<5" + "0" * 3000 + ">", "--field", "F5"], None),
    "repeated-index": (["nearby", "--data", "{repeated-index.json}"], None),
    "repeated-mult": (["nearby", "--data", "{repeated-mult.json}"], None),
    "repeated-both": (["nearby", "--data", "{repeated-both.json}"], None),
    "unknown-field": (["dt-a3", "--order", "3", "--field", "Fx"], None),
    "nonunit-mod-5": (["gw", "--op", "rank", "--a", "<1/5>", "--field", "F5"], None),
    # a gv refusal does not depend on --compare
    **{f"gv-{name}{tag}": (["gv", *argv, *mode], None)
       for mode, tag in (([], ""), (["--compare"], "-compare"))
       for name, argv in (("m-zero", ["--m", "0"]), ("m-negative", ["--m", "-3"]),
                          ("unknown-field", ["--m", "2", "--field", "Fx"]))},
    "oracle-over-cap": (["oracle", "pp", "--n", "15"], None),
    "oracle-negative": (["oracle", "spp", "--n", "-1"], None),
    **{name: (["ekl", "--map", f"{{{name}.json}}"], None) for name in (
        "ekl-float-coeff", "ekl-bool-coeff", "ekl-zero-denominator", "ekl-float-exponent",
        "ekl-bool-exponent", "ekl-duplicate-vars")},
    **{name: (["nearby", "--data", f"{{{name}.json}}"], None) for name in (
        "nearby-float-coeff", "nearby-float-exponent", "nearby-bool-coeff", "nearby-float-mult",
        "nearby-float-dim", "strata-object", "strata-number", "strata-string", "strata-null",
        "stratum-is-a-list", "u_coeffs-is-a-number", "nearby-data-is-a-list", "mult-is-a-list",
        "mult-key-not-an-index", "u_coeffs-term-of-one-item", "class-is-a-list", "dim-missing")},
    **{name: (["ekl", "--map", f"{{{name}.json}}"], None) for name in (
        "ekl-exponents-not-a-list", "ekl-term-of-one-item")},
    **{f"digits-{name}{tag}": (argv + mode, None) for mode, tag in (([], ""), (["--json"], "-json"))
       for name, argv in (
           ("sum-of-two", ["nearby", "--data", "{sum-of-two.json}"]),
           ("gw-rank", ["gw", "--op", "rank", "--a", f"{NINES}*<1> + {NINES}*<2>"]),
           ("gw-signature", ["gw", "--op", "signature", "--a", f"{NINES}*<1> + {NINES}*<2>"]),
           ("gw-mul", ["gw", "--op", "mul", "--a", f"{'7' * 2200}*<1>", "--b", f"{'7' * 2200}*<2>"]))},
    "digits-json-writer": (["nearby", "--data", "{long-euler.json}", "--json"], None),
    "digits-json-writer-out": (["nearby", "--data", "{long-euler.json}", "--out", "{out}"], None),
}

# id: (exit code, stderr), as the CLI wrote them before the test-only definitions
# left src/ and StratumRecord took over the repeated-index check; the JSON-shape rows
# as the readers in errors word them
ERRORS = {
    "usage-missing-op": (
        2,
        "usage: arithdt gw [-h] --op {add,sub,mul,equal,rank,signature,discriminant,diagonalize} "
        "[--a A] [--b B] [--matrix MATRIX] [--field FIELD] [--contract-h] [--json] [--out OUT]\n"
        "arithdt gw: error: the following arguments are required: --op\n",
    ),
    "usage-unknown-command": (
        2,
        "usage: arithdt [-h] [--version] {gw,dt-a3,ekl,nearby,gv,oracle,selftest} ...\n"
        "arithdt: error: argument subcommand: invalid choice: 'no-such-command' (choose from "
        "'gw', 'dt-a3', 'ekl', 'nearby', 'gv', 'oracle', 'selftest')\n",
    ),
    "gw-mul-without-b": (1, "error: --b is required for op mul\n"),
    "ekl-not-square": (1, "error: need a square system: 2 polynomials in 1 variables\n"),
    "ekl-missing-file": (
        1,
        "error: cannot read JSON from {tmp}/missing.json: [Errno 2] No such file or "
        "directory: '{tmp}/missing.json'\n",
    ),
    "order-over-cap": (1, "error: order 31 exceeds the cap 30 (ARITHDT_MAX_ORDER)\n"),
    "order-over-env-cap": (1, "error: order 6 exceeds the cap 5 (ARITHDT_MAX_ORDER)\n"),
    "cap-not-an-integer": (1, "error: ARITHDT_MAX_ORDER must be an integer, got 'oops'\n"),
    "diagonalize-bad-json-matrix": (
        1,
        "error: malformed --matrix: Expecting ',' delimiter: line 1 column 13 (char 12)\n",
    ),
    "ekl-bad-json": (
        1,
        "error: cannot read JSON from {tmp}/bad.json: Expecting value: line 1 column 11 (char 10)\n",
    ),
    "nearby-bad-json": (
        1,
        "error: cannot read JSON from {tmp}/bad.json: Expecting value: line 1 column 11 (char 10)\n",
    ),
    "ekl-map-is-a-directory": (
        1,
        "error: cannot read JSON from {tmp}: [Errno 21] Is a directory: '{tmp}'\n",
    ),
    "gw-zero-denominator": (1, "error: value is not a rational number: '1/0'\n"),
    "diagonalize-not-a-matrix": (1, "error: --matrix must be a list, got 5\n"),
    "nearby-half-power-x0": (1, "error: exponent must be an integer, got '1/2'\n"),
    "out-in-missing-dir": (
        1,
        "error: cannot write {tmp}/missing-dir/x.json: [Errno 2] No such file or directory: "
        "'{tmp}/missing-dir/x.json'\n",
    ),
    "ekl-deep": (
        1,
        "error: cannot read JSON from {tmp}/deep.json: maximum recursion depth exceeded "
        "while decoding a JSON array from a unicode string\n",
    ),
    "nearby-deep": (
        1,
        "error: cannot read JSON from {tmp}/deep.json: maximum recursion depth exceeded "
        "while decoding a JSON array from a unicode string\n",
    ),
    "diagonalize-deep-text": (
        1,
        "error: malformed --matrix: maximum recursion depth exceeded while decoding a JSON "
        "array from a unicode string\n",
    ),
    "gw-long-coefficient": (1, "error: GW coefficient has 5000 digits, more than 4300\n"),
    "long-field": (
        1,
        "error: unrecognized base field label: 'F777777777777777777777777777777777777777'... "
        "(5001 characters)\n",
    ),
    "long-cap": (
        1,
        "error: ARITHDT_MAX_ORDER must be an integer, got "
        "'7777777777777777777777777777777777777777'... (5000 characters)\n",
    ),
    "long-gw": (
        1,
        "error: cannot parse GW expression at: '<111111111111111111111111111111111111111'... "
        "(5000 characters)\n",
    ),
    "long-nonunit": (
        1,
        "error: 5000000000000000000000000000000000000000... (3001 characters) is not a unit "
        "modulo 5\n",
    ),
    "repeated-index": (1, "error: stratum index 1 appears twice in I\n"),
    "repeated-mult": (1, "error: stratum index 2 appears twice in mult\n"),
    "repeated-both": (1, "error: stratum index 1 appears twice in I\n"),
    "unknown-field": (1, "error: unrecognized base field label: 'Fx'\n"),
    "nonunit-mod-5": (1, "error: 1/5 is not a unit modulo 5\n"),
    "gv-m-zero": (1, "error: m must be a positive integer\n"),
    "gv-m-negative": (1, "error: m must be a positive integer\n"),
    "gv-unknown-field": (1, "error: unrecognized base field label: 'Fx'\n"),
    "gv-m-zero-compare": (1, "error: m must be a positive integer\n"),
    "gv-m-negative-compare": (1, "error: m must be a positive integer\n"),
    "gv-unknown-field-compare": (1, "error: unrecognized base field label: 'Fx'\n"),
    "oracle-over-cap": (1, "error: enumeration is capped at n = 14\n"),
    "oracle-negative": (1, "error: n must be nonnegative\n"),
    "ekl-float-coeff": (
        1,
        "error: polynomial coefficient must be an integer, a fraction or a rational string, "
        "got 0.1\n",
    ),
    "ekl-bool-coeff": (
        1,
        "error: polynomial coefficient must be an integer, a fraction or a rational string, "
        "got True\n",
    ),
    "ekl-zero-denominator": (
        1,
        "error: polynomial coefficient is not a rational number: '1/0'\n",
    ),
    "ekl-float-exponent": (1, "error: exponent must be an integer, got 2.5\n"),
    "ekl-bool-exponent": (1, "error: exponent must be an integer, got True\n"),
    "ekl-duplicate-vars": (1, "error: duplicate variable names in ['x', 'x']\n"),
    "nearby-float-coeff": (1, "error: coefficient must be an integer, got 1.5\n"),
    "nearby-float-exponent": (1, "error: exponent must be an integer, got 0.9\n"),
    "nearby-bool-coeff": (1, "error: coefficient must be an integer, got False\n"),
    "nearby-float-mult": (1, "error: multiplicity must be an integer, got 1.7\n"),
    "nearby-float-dim": (1, "error: ambient dimension must be an integer, got 2.0\n"),
    # JSON of the wrong shape: what was expected where, and what was found
    "strata-object": (1, "error: \"strata\" must be a list, got {'I': [1]}\n"),
    "strata-number": (1, "error: \"strata\" must be a list, got 5\n"),
    "strata-string": (1, "error: \"strata\" must be a list, got 'ab'\n"),
    "strata-null": (1, "error: \"strata\" must be a list, got None\n"),
    "stratum-is-a-list": (1, "error: stratum record must be a JSON object, got [1]\n"),
    "u_coeffs-is-a-number": (1, "error: \"u_coeffs\" must be a list, got 5\n"),
    "nearby-data-is-a-list": (1, "error: SNC data must be a JSON object, got [2, []]\n"),
    "mult-is-a-list": (1, "error: \"mult\" must be a JSON object, got [1]\n"),
    "mult-key-not-an-index": (1, "error: \"mult\" key must be an integer, got 'a'\n"),
    "u_coeffs-term-of-one-item": (1, "error: \"u_coeffs\" term must be a list of 2 items, got [2]\n"),
    "class-is-a-list": (1, "error: motivic class must be a JSON object, got [[2, 1]]\n"),
    "dim-missing": (1, "error: ambient dimension must be an integer, got None\n"),
    "ekl-exponents-not-a-list": (1, "error: exponent vector must be a list, got 1\n"),
    "ekl-term-of-one-item": (1, "error: polynomial term must be a list of 2 items, got [[1]]\n"),
    "digits-sum-of-two": (
        1,
        "error: the answer holds an integer of more than 4300 digits, more than is written "
        "as text (PYTHONINTMAXSTRDIGITS sets the limit)\n",
    ),
    "digits-gw-rank": (
        1,
        "error: the answer holds an integer of more than 4300 digits, more than is written "
        "as text (PYTHONINTMAXSTRDIGITS sets the limit)\n",
    ),
    "digits-gw-signature": (
        1,
        "error: the answer holds an integer of more than 4300 digits, more than is written "
        "as text (PYTHONINTMAXSTRDIGITS sets the limit)\n",
    ),
    "digits-gw-mul": (
        1,
        "error: the answer holds an integer of more than 4300 digits, more than is written "
        "as text (PYTHONINTMAXSTRDIGITS sets the limit)\n",
    ),
    "digits-sum-of-two-json": (
        1,
        "error: the answer holds an integer of more than 4300 digits, more than is written "
        "as text (PYTHONINTMAXSTRDIGITS sets the limit)\n",
    ),
    "digits-gw-rank-json": (
        1,
        "error: the answer holds an integer of more than 4300 digits, more than is written "
        "as text (PYTHONINTMAXSTRDIGITS sets the limit)\n",
    ),
    "digits-gw-signature-json": (
        1,
        "error: the answer holds an integer of more than 4300 digits, more than is written "
        "as text (PYTHONINTMAXSTRDIGITS sets the limit)\n",
    ),
    "digits-gw-mul-json": (
        1,
        "error: the answer holds an integer of more than 4300 digits, more than is written "
        "as text (PYTHONINTMAXSTRDIGITS sets the limit)\n",
    ),
    "digits-json-writer": (
        1,
        "error: the answer holds an integer of more than 4300 digits, more than is written "
        "as text (PYTHONINTMAXSTRDIGITS sets the limit)\n",
    ),
    "digits-json-writer-out": (
        1,
        "error: the answer holds an integer of more than 4300 digits, more than is written "
        "as text (PYTHONINTMAXSTRDIGITS sets the limit)\n",
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The test's directory, with FILES written in it, and what each placeholder stands for."""
    tmp = tmp_path_factory.mktemp("inputs")
    for name, text in FILES.items():
        (tmp / name).write_text(text)
    paths = {f"{{{name}}}": str(tmp / name) for name in FILES}
    paths |= {"{tmp}": str(tmp), "{missing}": str(tmp / "missing.json"),
              "{missing-dir}": str(tmp / "missing-dir" / "x.json"), "{out}": str(tmp / "o.json")}
    return tmp, paths


def test_every_subcommand_has_an_error_row():
    # selftest reads no input
    assert {argv[0] for argv, _ in BAD_INPUT.values()} >= set(COMMANDS) - {"selftest"}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_error_bytes(case, inputs, monkeypatch):
    argv, cap = BAD_INPUT[case]
    # argparse wraps its usage lines to the terminal, and 3.13 breaks them at other places
    # than 3.10-3.12: at this width it wraps none, so the usage rows hold on each
    monkeypatch.setenv("COLUMNS", "200")
    if cap is None:
        monkeypatch.delenv("ARITHDT_MAX_ORDER", raising=False)
    else:
        monkeypatch.setenv("ARITHDT_MAX_ORDER", cap)
    tmp, paths = inputs
    code, out, err = _run([paths.get(arg, arg) for arg in argv])
    expected_code, expected_err = ERRORS[case]
    assert (code, out, err.replace(str(tmp), "{tmp}")) == (expected_code, "", expected_err)
