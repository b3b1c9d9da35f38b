"""The crash boundary: seeded command lines, run through ``cli.dispatch`` in process.

Each command line is drawn from ``cli.COMMANDS`` itself, positionals
included, so an option added there is fuzzed with no edit here.  Most lines
are well-formed, so that they reach a handler with good, malformed or absurd
values and input files; the rest carry one usage error for argparse to
report.  Every line must end in one of three ways:

- exit 0;
- exit 1 with exactly one stderr line, ``error: ...``;
- exit 2 with argparse's ``arithdt ...: error: ...`` line last on stderr;

never an exception out of ``dispatch`` or a traceback, and within a time
budget.  The same line run twice writes the same bytes, and a failed
``--out`` leaves no file behind.

Sizes are kept small on purpose: how the answers scale with the order, the
degree or the dimension is the benchmark's axis, not this test's.
"""

import io
import json
import random
import re
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest

from arithdt import cli

CASES = 100  # per seed
BUDGET_S = 10  # per run: a hang, not a slow answer
USAGE_ERROR = re.compile(r"arithdt( \S+)?: error: ")

_HYPERBOLA = {
    "dim": 2,
    "x0_class": {"u_coeffs": [[2, 2], [0, -1]]},
    "strata": [
        {"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": [[2, 1], [0, -1]]}},
        {"I": [2], "mult": {"2": 1}, "class": {"u_coeffs": [[2, 1], [0, -1]]}},
        {"I": [1, 2], "mult": {"1": 1, "2": 1}, "class": {"u_coeffs": [[0, 1]]}},
    ],
}

# input files: the good ones first, then the malformed or absurd
MAPS = {
    "map.json": {"vars": ["x", "y"], "polys": [[[[1, 0], "2"]], [[[0, 2], "1"]]]},
    "milnor.json": {"vars": ["x", "y"], "polys": [[[[3, 0], "4"]], [[[0, 3], "4"]]]},
    "rational.json": {"vars": ["x"], "polys": [[[[2], "1/3"], [[0], "-2"]]]},
    "float-map.json": {"vars": ["x"], "polys": [[[[2], 0.5]]]},
    "zero-den.json": {"vars": ["x"], "polys": [[[[2], "1/0"]]]},
    "repeated-var.json": {"vars": ["x", "x"], "polys": [[[[1, 0], 1]], [[[0, 1], 1]]]},
    "not-square.json": {"vars": ["x", "y"], "polys": [[[[1, 1], 1]]]},
    "positive-dim.json": {"vars": ["x", "y"], "polys": [[[[1, 1], 1]], [[[2, 1], 1]]]},
    "no-polys.json": {"vars": ["x"], "polys": []},
}
SNC = {
    "snc.json": _HYPERBOLA,
    "snc-local.json": {**_HYPERBOLA, "x0_class": None},
    "specc.json": {"dim": 2, "strata": [
        {"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": [[2, 1]], "extras": {"SpecC": [[0, 1]]}}}]},
    "repeated-index.json": {"dim": 2, "strata": [{"I": [1, 1], "mult": {"1": 1}, "class": {"u_coeffs": [[2, 1]]}}]},
    "rational-class.json": {"dim": 2, "strata": [], "x0_class": {"u_coeffs": [["1/2", 1]]}},
    "negative-dim.json": {"dim": -1, "strata": []},
    "strata-not-list.json": {"dim": 2, "strata": 5},
    "list.json": [1, 2, 3],
}
BAD_FILES = ["bad.json", "missing.json", "."]

# (good, bad) values of the string options, by name; an option not named here draws from all
VALUES = {
    "--a": (["<2>", "3*<1> + 2*<-1>", "H - <3>", "<1/3>", "0", ""], ["<0>", "<1/0>", "2*<", "<x>"]),
    "--b": (["<2>", "H", "<-1> + <5>", "<3/4>"], ["<0>", "<<"]),
    "--matrix": (["[[0,1],[1,0]]", "[[1,2],[2,1]]", "[[2]]", "[]"],
                 ["[[1,2],[3,4]]", "[[1]", "5", '[["x"]]', '[["1/0"]]', "[[0.5]]"]),
    "--field": (["Q", "R", "C", "F2", "F5"], ["F4", "Fx", "", "q"]),
    "--map": (list(MAPS)[:3], list(MAPS)[3:] + BAD_FILES),
    "--data": (list(SNC)[:3], list(SNC)[3:] + BAD_FILES),
    # blocked.json can be opened, but its manifest path is a directory
    "--out": (["o.json"], ["blocked.json", "missing-dir/o.json", "."]),
}
ANY_VALUE = tuple(sum(pool, []) for pool in zip(*VALUES.values()))
OUT_FILES = ("o.json", "o.json.manifest.json", "blocked.json")
INTS = (["0", "1", "2", "3", "4", "5"], ["-1", "x", "1.5"])
MUTATIONS = ["abbreviate", "equals", "unknown", "repeat", "drop", "stray", "--"]


def _value(rng, option, kw):
    """A good value with probability 0.85, else a bad one."""
    if "choices" in kw:
        good, bad = kw["choices"], ["nope"]
    elif kw.get("type") is int:
        good, bad = INTS
    else:
        good, bad = VALUES.get(option, ANY_VALUE)
    return rng.choice(good if rng.random() < 0.85 else bad)


def command_line(rng) -> list:
    """One argv drawn from ``cli.COMMANDS``: every positional and required option, some of
    the others, in any order, and with probability 1/4 one usage error."""
    name = rng.choice(list(cli.COMMANDS))
    options = cli.COMMANDS[name][1]
    pairs = []
    for option, kw in options:
        if not option.startswith("-"):
            pairs.append([_value(rng, option, kw)])
        elif kw.get("required") or rng.random() < 0.4:
            pairs.append([option] if kw.get("action") == "store_true" else [option, _value(rng, option, kw)])
    rng.shuffle(pairs)
    mutation = rng.choice(MUTATIONS) if rng.random() < 0.25 else None
    if mutation == "abbreviate" and pairs and pairs[0][0].startswith("--"):
        pairs[0][0] = pairs[0][0][:3]
    elif mutation == "equals" and pairs and len(pairs[0]) == 2:
        pairs[0] = ["=".join(pairs[0])]
    elif mutation == "unknown":
        pairs.append(["--nope"])
    elif mutation == "repeat" and pairs:
        pairs.append(list(pairs[0]))
    elif mutation == "drop" and pairs:
        del pairs[0]
    elif mutation in ("stray", "--"):
        pairs.insert(rng.randrange(len(pairs) + 1), ["stray" if mutation == "stray" else "--"])
    return [name, *(token for pair in pairs for token in pair)]


class _OverBudget(BaseException):
    """Raised by the alarm; not an Exception, so no handler can catch it as one."""


def _alarm(signum, frame):
    raise _OverBudget


def _run(argv):
    """Exit code, stdout and stderr of ``dispatch(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.dispatch(argv)
            except SystemExit as exc:  # usage errors, help and --version, from argparse
                code = exc.code
    except _OverBudget:
        pytest.fail(f"over {BUDGET_S} s: {argv}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, value in {**MAPS, **SNC}.items():
        (tmp_path / name).write_text(json.dumps(value))
    (tmp_path / "bad.json").write_text('{"vars": [')
    (tmp_path / "blocked.json.manifest.json").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARITHDT_MAX_ORDER", raising=False)
    return tmp_path


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_command_line_ends_in_an_exit_code(seed, workdir):
    rng = random.Random(seed)
    argvs = {tuple(command_line(rng)) for _ in range(CASES)}
    exits = set()
    for argv in sorted(argvs):
        argv = list(argv)
        code, out, err = first = _run(argv)
        written = [name for name in OUT_FILES if (workdir / name).is_file()]
        assert _run(argv) == first, argv
        for name in written:
            (workdir / name).unlink()
        assert "Traceback" not in out + err, argv
        exits.add(code)
        if code == 0:
            assert err == "", argv
        elif code == 1:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
            assert written == [], (argv, written)  # no partial answer is left behind
        else:
            assert code == 2, (argv, code)
            assert out == "" and USAGE_ERROR.match(err.splitlines()[-1]), (argv, err)
    # the lines reach the handlers, and the handlers' refusals
    assert {0, 1} <= exits
