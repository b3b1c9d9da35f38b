"""The process entry point, ``cli.main``, against the in-process ``dispatch``.

``main`` freezes the objects left at the end of a job, so the collections of
interpreter shutdown skip them, and ends a job whose reader closed stdout
with exit 1 and no traceback.  ``dispatch`` leaves the collector alone, and
both give the same bytes and exit codes.
"""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

import arithdt
from arithdt.cli import dispatch

MAIN = [sys.executable, "-c", "from arithdt.cli import main; main()"]
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
    files = {"map": tmp_path / "map.json", "snc": tmp_path / "snc.json"}
    files["map"].write_text(json.dumps(_MAP))
    files["snc"].write_text(json.dumps(_SNC))
    argv = [a.format(**files) for a in argv]
    proc = subprocess.run(MAIN + argv, capture_output=True, timeout=60, env=ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(argv, capsys)
    assert proc.returncode == code
    if code == 1:
        assert proc.stderr.decode().splitlines()[0].startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1


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
