"""The process entry point, ``cli.main``, against the in-process ``dispatch``.

``main`` flushes the answer and ends the process with ``os._exit``: no
interpreter teardown and no ``atexit`` handler, on a job, a domain error, a
usage error, ``--help`` and ``--version`` alike.  A job whose reader closed
stdout ends with exit 1 and no traceback, and any other exception still
leaves with Python's traceback.  ``dispatch`` keeps the interpreter and
leaves the collector alone, and both give the same bytes and exit codes.
"""

import gc
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli_fuzz import OUT_FILES, command_line

import arithdt
from arithdt.cli import dispatch

# a process that registers an atexit handler, then runs main: the handler writes to
# stderr if it runs, so every comparison of stderr below checks that it does not
AT_EXIT = "import atexit, os; atexit.register(os.write, 2, b'atexit ran\\n'); "
MAIN = [sys.executable, "-c", AT_EXIT + "from arithdt.cli import main; main()"]
# no bytecode is written into the tree under test, which would change its start-up time
ENV = {"PYTHONPATH": str(Path(arithdt.__file__).resolve().parent.parent), "PATH": "",
       "PYTHONDONTWRITEBYTECODE": "1"}

_MAP = {"vars": ["x", "y"], "polys": [[[[3, 0], "4"]], [[[0, 3], "4"]]]}
_SNC = {
    "dim": 2,
    "strata": [
        {"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": [[0, -1], [2, 1]]}},
        {"I": [2], "mult": {"2": 1}, "class": {"u_coeffs": [[0, -1], [2, 1]]}},
        {"I": [1, 2], "mult": {"1": 1, "2": 1}, "class": {"u_coeffs": [[0, 1]]}},
    ],
    "x0_class": {"u_coeffs": [[0, -1], [2, 2]]},
}


def _in_main(argv, env=(), timeout=60, **kwargs) -> tuple:
    """Run main in a child with ENV and the variables in ``env``; exit code, stdout, stderr."""
    proc = subprocess.run(MAIN + argv, capture_output=True, timeout=timeout,
                          env={**ENV, **dict(env)}, **kwargs)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv, capsys) -> tuple:
    try:
        code = dispatch(argv)
    except SystemExit as exc:  # argparse: usage errors and --version
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_dispatch_leaves_the_collector_as_it_found_it(enabled, capsys):
    was_enabled = gc.isenabled()
    if not enabled:
        gc.disable()
    try:
        frozen = gc.get_freeze_count()
        codes = [_in_process(argv, capsys)[0] for argv in (
            ["gw", "--op", "rank", "--a", "<2>"],
            ["gw", "--op", "mul", "--a", "<2>", "--b", "<3>", "--json"],
            ["dt-a3", "--order", "31"],
            ["gw", "--op", "nope"],
            ["--version"],
        )]
        assert codes == [0, 0, 1, 2, 0]
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["gw", "--op", "mul", "--a", "<2> + 3*<-3>", "--b", "<6> - <1>"], 0),
        (["gw", "--op", "diagonalize", "--matrix", "[[0,1],[1,0]]", "--json"], 0),
        (["gw", "--op", "nope"], 2),
        (["dt-a3", "--order", "6", "--output", "arithmetic", "--json"], 0),
        (["dt-a3", "--order", "31"], 1),
        (["ekl", "--map", "{map}"], 0),
        (["nearby", "--data", "{snc}", "--json"], 0),
        (["gv", "--m", "2", "--compare"], 0),
        (["oracle", "spp", "--n", "6", "--json"], 0),
        (["selftest"], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_main_in_a_process_answers_as_dispatch_does(argv, code, tmp_path, capsys):
    # a job, a domain error and a usage error all end at os._exit: no atexit handler runs
    files = {"map": tmp_path / "map.json", "snc": tmp_path / "snc.json"}
    files["map"].write_text(json.dumps(_MAP))
    files["snc"].write_text(json.dumps(_SNC))
    argv = [a.format(**files) for a in argv]
    returncode, _, err = answer = _in_main(argv)
    assert answer == _in_process(argv, capsys)
    assert returncode == code
    if code == 1:
        assert err.decode().splitlines()[0].startswith("error: ")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_traceback(mode, tmp_path):
    """``nearby ... | head -c 100``.  The output, over 200 KB in either mode, is more
    than the pipe holds, so the job is still writing when the reader goes."""
    u_coeffs = [[2 * e, e % 7 - 3 or 1] for e in range(20_000)]
    path = tmp_path / "snc.json"
    path.write_text(json.dumps({"dim": 2, "strata": [
        {"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": u_coeffs}}]}))
    proc = subprocess.Popen(MAIN + ["nearby", "--data", str(path), *mode], env=ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert len(head) == 100
    assert err == b""


def test_out_written_through_main_holds_the_bytes_of_dispatch(tmp_path, monkeypatch, capsys):
    argv = ["gw", "--op", "rank", "--a", "<2>", "--out", "r.json"]
    (tmp_path / "main").mkdir()
    (tmp_path / "dispatch").mkdir()
    answer = _in_main(argv, cwd=tmp_path / "main")
    monkeypatch.chdir(tmp_path / "dispatch")
    assert answer == _in_process(argv, capsys) == (0, b"", b"")
    for name in ("r.json", "r.json.manifest.json"):
        written = (tmp_path / "main" / name).read_bytes()
        assert written == (tmp_path / "dispatch" / name).read_bytes() and written.endswith(b"}\n")


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_piped_output_past_the_pipe_size_arrives_whole(mode, tmp_path, capsys):
    """Over 64 KB, more than a pipe holds: the job writes while the reader reads, and
    what is still buffered at the end (the JSON writer's last batch) goes out with
    the flush before the process ends."""
    path = tmp_path / "snc.json"
    path.write_text(json.dumps({"dim": 2, "strata": [
        {"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": [[2 * e, e % 7 - 3 or 1] for e in range(8000)]}}]}))
    argv = ["nearby", "--data", str(path), *mode]
    expected = _in_process(argv, capsys)
    assert len(expected[1]) > 1 << 16
    assert _in_main(argv) == expected


@pytest.mark.parametrize("argv", [["--help"], ["dt-a3", "--help"]], ids=["help", "dt-a3-help"])
def test_help_leaves_through_the_same_exit(argv, capsys):
    # argparse prints help and raises SystemExit(0); main ends the process with that code
    code, out, err = _in_main(argv)
    assert (code, out, err) == _in_process(argv, capsys)
    assert code == 0 and out.startswith(b"usage: arithdt")


def test_any_other_exception_keeps_its_traceback():
    # main leaves by os._exit only on its normal paths; a bug ends as Python ends it
    code = AT_EXIT + "from arithdt import cli; cli.dispatch = lambda: 1 // 0; cli.main()"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60, env=ENV)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(b"Traceback (most recent call last):")
    assert b"ZeroDivisionError: integer division or modulo by zero\n" in proc.stderr
    # the interpreter was left to end as usual, so the handler ran
    assert proc.stderr.endswith(b"atexit ran\n")


@pytest.mark.parametrize("argv", [["gw", "--op", "rank", "--a", "<2>"], ["dt-a3", "--order", "31"],
                                  ["gw", "--op", "nope"], ["--help"], ["--version"]],
                         ids=["job", "domain-error", "usage-error", "help", "version"])
def test_no_atexit_handler_runs(argv):
    # in-process callers, who need their interpreter to go on, call dispatch
    assert b"atexit ran" not in _in_main(argv)[2]


def _take_out_files(directory) -> dict:
    """The bytes of each --out file a fuzzed line wrote in directory, which are removed."""
    written = {name: (directory / name).read_bytes()
               for name in OUT_FILES if (directory / name).is_file()}
    for name in written:
        (directory / name).unlink()
    return written


def test_seeded_command_lines_answer_through_main_as_through_dispatch(tmp_path, monkeypatch, capsys):
    rng = random.Random(34)
    files = {}
    argvs = [command_line(rng, files) for _ in range(20)]
    (tmp_path / "bad.json").write_text('{"vars": [')
    (tmp_path / "blocked.json.manifest.json").mkdir()
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARITHDT_MAX_ORDER", raising=False)
    codes = set()
    for argv in argvs:
        first = _in_process(argv, capsys), _take_out_files(tmp_path)
        assert (_in_main(argv), _take_out_files(tmp_path)) == first, argv
        codes.add(first[0][0])
    # the lines reach the handlers, their refusals and argparse
    assert codes == {0, 1, 2}
