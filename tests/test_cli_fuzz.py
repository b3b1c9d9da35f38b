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

# --map and --data files are drawn too: a good payload, or one with a defect of the kind
# a user makes (a wrong type, a float, "1/0", a repeated variable or index, a missing key)
COEFFS = ([1, -1, 2, "3", "-1/2", "5/3"], [0.5, "1/0", "x", None, True, [1]])


def _coeff(rng):
    return rng.choice(COEFFS[0])


def _map_payload(rng, good):
    """A square system vanishing at the origin: x_i^d_i plus up to two terms of degree <= 3."""
    n = rng.choice((1, 1, 2, 2, 2, 3))
    polys = []
    for i in range(n):
        lead = [0] * n
        lead[i] = rng.randint(1, 3 if n < 3 else 2)
        terms = [[lead, _coeff(rng)]]
        for _ in range(rng.randint(0, 2)):
            exps = [rng.randint(0, 2) for _ in range(n)]
            if 0 < sum(exps) <= 3:
                terms.append([exps, _coeff(rng)])
        polys.append(terms)
    payload = {"vars": ["x", "y", "z"][:n], "polys": polys}
    if good:
        return payload
    term = rng.choice(rng.choice(polys))
    defect = rng.randrange(8)
    if defect == 0:
        term[1] = rng.choice(COEFFS[1])  # a float, 1/0, a name, null, a bool or a list
    elif defect == 1:
        term[0] = rng.choice(["1", [-1] * n, [1.5] * n, [1] * (n + 1), None])
    elif defect == 2:
        payload["vars"] = ["x"] * max(2, n)  # a repeated variable
    elif defect == 3:
        del payload[rng.choice(["vars", "polys"])]
    elif defect == 4:
        payload[rng.choice(["vars", "polys"])] = rng.choice(["xy", 5, {"x": 1}, [[1]]])
    elif defect == 5:
        payload = [payload] if rng.random() < 0.5 else "map"
    elif defect == 6:
        polys.pop() if rng.random() < 0.5 else polys.append(polys[0])  # not square
    else:
        polys[0].append({"exps": [1] * n, "coeff": 1})
    return payload


def _class_payload(rng):
    out = {"u_coeffs": [[rng.randint(-2, 4), rng.randint(-3, 3)] for _ in range(rng.randint(0, 3))]}
    if rng.random() < 0.3:
        out["extras"] = {"SpecC": [[rng.randint(0, 2), rng.randint(-2, 2)]]}
    return out


def _snc_payload(rng, good):
    """SNC data of up to four strata on indices 1..5, with [X_0] or without it."""
    strata = []
    for _ in range(rng.randint(0, 4)):
        index_set = rng.sample(range(1, 6), rng.randint(1, 3))
        strata.append({"I": index_set, "mult": {str(i): rng.randint(1, 3) for i in index_set},
                       "class": _class_payload(rng)})
    payload = {"dim": rng.randint(1, 4), "strata": strata}
    if rng.random() < 0.7:
        payload["x0_class"] = _class_payload(rng)
    if good:
        return payload
    cls = rng.choice([s["class"] for s in strata] + [payload.get("x0_class") or _class_payload(rng)])
    defect = rng.randrange(8)
    if defect == 0:
        cls["u_coeffs"] = [[rng.choice([0.5, "1/0", "1/2", None]), 1]]
    elif defect == 1 and strata:
        strata[0]["I"] = strata[0]["I"][:1] * 2  # a repeated index
    elif defect == 2:
        victim = rng.choice(strata) if strata and rng.random() < 0.7 else payload
        del victim[rng.choice([k for k in victim if k != "x0_class"])]
    elif defect == 3:
        payload[rng.choice(["dim", "strata", "x0_class"])] = rng.choice(["2", 2.0, 5, [1], {"I": 1}, None])
    elif defect == 4 and strata:
        strata[0][rng.choice(["I", "mult", "class"])] = rng.choice(["12", 3, [1, "x"], {"1": 0}, None])
    elif defect == 5:
        payload["dim"] = rng.choice([-1, 0])
    elif defect == 6:
        cls["extras"] = rng.choice([{"Foo": [[0, 1]]}, [["SpecC", 1]], {"SpecC": 1}])
    else:
        payload = [payload] if rng.random() < 0.5 else "snc"
    return payload


PAYLOADS = {"--map": _map_payload, "--data": _snc_payload}
# files that cannot be read as JSON: a truncated one, a missing one, a directory
BAD_FILES = ["bad.json", "missing.json", "."]

# (good, bad) values of the string options, by name; an option not named here draws from all
VALUES = {
    "--a": (["<2>", "3*<1> + 2*<-1>", "H - <3>", "<1/3>", "0", "", "- <2> + 3*<-1>"],
            ["<0>", "<1/0>", "2*<", "<x>", "- x=y"]),
    "--b": (["<2>", "H", "<-1> + <5>", "<3/4>", "- H"], ["<0>", "<<"]),
    "--matrix": (["[[0,1],[1,0]]", "[[1,2],[2,1]]", "[[2]]", "[]"],
                 ["[[1,2],[3,4]]", "[[1]", "5", '[["x"]]', '[["1/0"]]', "[[0.5]]"]),
    "--field": (["Q", "R", "C", "F2", "F5"], ["F4", "Fx", "", "q"]),
    # blocked.json can be opened, but its manifest path is a directory
    "--out": (["o.json"], ["blocked.json", "missing-dir/o.json", "."]),
}
ANY_VALUE = tuple(sum(pool, []) for pool in zip(*VALUES.values()))
OUT_FILES = ("o.json", "o.json.manifest.json", "blocked.json")
INTS = (["0", "1", "2", "3", "4", "5"], ["-1", "x", "1.5"])
MUTATIONS = ["abbreviate", "equals", "unknown", "repeat", "drop", "stray", "--"]


def _value(rng, option, kw, files):
    """A good value with probability 0.85, else a bad one.  A file option names a new
    file of ``files`` (name -> drawn payload), or now and then one that cannot be read."""
    good = rng.random() < 0.85
    if option in PAYLOADS:
        if not good and rng.random() < 0.3:
            return rng.choice(BAD_FILES)
        name = f"{option[2:]}{len(files)}.json"
        files[name] = PAYLOADS[option](rng, good)
        return name
    if "choices" in kw:
        pools = kw["choices"], ["nope"]
    elif kw.get("type") is int:
        pools = INTS
    else:
        pools = VALUES.get(option, ANY_VALUE)
    return rng.choice(pools[0] if good else pools[1])


def command_line(rng, files) -> list:
    """One argv drawn from ``cli.COMMANDS``: every positional and required option, some of
    the others, in any order, and with probability 1/4 one usage error."""
    name = rng.choice(list(cli.COMMANDS))
    options = cli.COMMANDS[name][1]
    pairs = []
    for option, kw in options:
        if not option.startswith("-"):
            pairs.append([_value(rng, option, kw, files)])
        elif kw.get("required") or rng.random() < 0.4:
            pairs.append([option] if kw.get("action") == "store_true"
                         else [option, _value(rng, option, kw, files)])
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
    (tmp_path / "bad.json").write_text('{"vars": [')
    (tmp_path / "blocked.json.manifest.json").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARITHDT_MAX_ORDER", raising=False)
    return tmp_path


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_command_line_ends_in_an_exit_code(seed, workdir):
    rng = random.Random(seed)
    files = {}
    argvs = {tuple(command_line(rng, files)) for _ in range(CASES)}
    for name, payload in files.items():
        (workdir / name).write_text(json.dumps(payload))
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
