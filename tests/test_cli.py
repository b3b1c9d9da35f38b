"""CLI dispatch: golden outputs, JSON round-trips, manifests, exit codes."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from operator import getitem
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from test_contract import NINES, _ekl_map, _run, _snc, _type_error
from test_groebner import thin_staircase

import arithdt
from arithdt import cli
from arithdt.cli import dispatch
from arithdt.commands.gw import parse_gw
from arithdt.dt import z_motivic
from arithdt.errors import InputDataError, IntegerTooLongError, brief, brief_str
from arithdt.ekl import ekl_class
from arithdt.fields import QQ, RR
from arithdt.groebner import QuotientAlgebra
from arithdt.gw import GwElement
from arithdt.gwalpha import GwAlphaElement
from arithdt.motivic import MotivicClass, chi_a1, chi_complex, chi_real


def run_cli(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gw_expression_parser():
    assert parse_gw("<2>", QQ) == GwElement.unit(QQ, 2)
    assert parse_gw("3*<1> + 2*<-1>", QQ) == GwElement.one(QQ) * 3 + GwElement.unit(QQ, -1) * 2
    assert parse_gw("H - <2>", QQ) == GwElement.hyperbolic(QQ) - GwElement.unit(QQ, 2)
    assert parse_gw("<1/2>", QQ) == GwElement.unit(QQ, 2)
    assert parse_gw("-<3>", QQ) == -GwElement.unit(QQ, 3)
    assert parse_gw("0", QQ) == GwElement.zero(QQ)
    with pytest.raises(InputDataError):
        parse_gw("2 + 2", QQ)
    # terms run together, a dangling or doubled sign
    for text in ("<1><2>", "H H", "<1> +", "- - <1>", "<1> + - <2>"):
        with pytest.raises(InputDataError):
            parse_gw(text, QQ)
    from arithdt.errors import ArithdtError

    with pytest.raises(ArithdtError):
        parse_gw("<0>", QQ)  # zero has no square class


def test_gw_mul_golden(capsys):
    code, out, _ = run_cli(["gw", "--op", "mul", "--a", "<2>", "--b", "<2>"], capsys)
    assert code == 0
    assert out.strip() == "<1>"


def test_gw_equal_and_invariants(capsys):
    code, out, _ = run_cli(["gw", "--op", "equal", "--a", "<2> + <-2>", "--b", "H"], capsys)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(["gw", "--op", "rank", "--a", "3*<1> + 2*<-1>"], capsys)
    assert code == 0 and out.strip() == "5"
    code, out, _ = run_cli(["gw", "--op", "signature", "--a", "3*<1> + 2*<-1>"], capsys)
    assert code == 0 and out.strip() == "1"


def test_gw_diagonalize_without_a(capsys):
    code, out, _ = run_cli(["gw", "--op", "diagonalize", "--matrix", "[[0,1],[1,0]]"], capsys)
    assert code == 0
    assert out.strip() == "<1> + <-1>"


def test_dt_a3_complex_golden(capsys):
    code, out, _ = run_cli(["dt-a3", "--order", "6", "--output", "complex"], capsys)
    assert code == 0
    assert out.strip() == "1, -1, 3, -6, 13, -24, 48"


def test_dt_a3_takes_every_field(capsys):
    # the complex and real images, and the motivic series, do not depend on the field
    code, out, _ = run_cli(["dt-a3", "--order", "6", "--field", "C"], capsys)
    assert code == 0 and out.strip() == "1, -1, 3, -6, 13, -24, 48"
    _, over_q, _ = run_cli(["dt-a3", "--order", "6", "--field", "Q", "--output", "motivic"], capsys)
    code, over_f5, _ = run_cli(["dt-a3", "--order", "6", "--field", "F5", "--output", "motivic"], capsys)
    assert code == 0 and over_f5 == over_q


def test_dt_a3_motivic_json_round_trip(capsys):
    code, out, _ = run_cli(["dt-a3", "--order", "4", "--output", "motivic", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    coeffs = [MotivicClass.from_json_dict(c) for c in payload["series"]["coeffs"]]
    assert coeffs == list(z_motivic(4).coeffs)
    assert payload["manifest"]["subcommand"] == "dt-a3"
    assert payload["manifest"]["artifact_version"]


def test_order_cap(capsys, monkeypatch):
    code, _, err = run_cli(["dt-a3", "--order", "31", "--output", "complex"], capsys)
    assert code == 1 and "cap" in err
    monkeypatch.setenv("ARITHDT_MAX_ORDER", "5")
    code, _, err = run_cli(["dt-a3", "--order", "6", "--output", "complex"], capsys)
    assert code == 1
    monkeypatch.setenv("ARITHDT_MAX_ORDER", "oops")
    code, _, err = run_cli(["dt-a3", "--order", "2", "--output", "complex"], capsys)
    assert code == 1


def test_ekl_subcommand(tmp_path, capsys):
    payload = {"vars": ["x", "y"], "polys": [[[[1, 0], "2"]], [[[0, 1], "-2"]]]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(["ekl", "--map", str(path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "<-1>"
    assert lines[1] == "rank: 1"
    assert lines[2] == "signature: -1"


def test_ekl_json_round_trip(tmp_path, capsys):
    payload = {"vars": ["x"], "polys": [[[[2], "1"]]]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(["ekl", "--map", str(path), "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert GwElement.from_json_dict(data["class"]).gw_equal(GwElement.hyperbolic(QQ))
    assert data["algebra_dimension"] == 2


HYPERBOLA = {
    "dim": 2,
    "x0_class": {"u_coeffs": [[2, 2], [0, -1]], "extras": {}},
    "strata": [
        {"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": [[2, 1], [0, -1]], "extras": {}}},
        {"I": [2], "mult": {"2": 1}, "class": {"u_coeffs": [[2, 1], [0, -1]], "extras": {}}},
        {"I": [1, 2], "mult": {"1": 1, "2": 1}, "class": {"u_coeffs": [[0, 1]], "extras": {}}},
    ],
}


def test_nearby_subcommand(tmp_path, capsys):
    path = tmp_path / "snc.json"
    path.write_text(json.dumps(HYPERBOLA))
    code, out, _ = run_cli(["nearby", "--data", str(path), "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert MotivicClass.from_json_dict(data["nearby_class"]) == MotivicClass.lefschetz() - 1
    assert MotivicClass.from_json_dict(data["virtual_class"]) == MotivicClass.one()
    assert data["euler"]["complex"] == 0

    code, out, _ = run_cli(["nearby", "--data", str(path), "--local"], capsys)
    assert code == 0
    assert "local_nearby_class" in out


def test_nearby_euler_block_matches_the_specializations(tmp_path, capsys):
    # half powers and a SpecC part, so the alpha part and the generator part both count
    stratum = {"u_coeffs": [[1, 3], [-3, 2], [2, -1]], "extras": {"SpecC": [[1, 1], [0, 2]]}}
    snc = {
        "dim": 3,
        "strata": [
            {"I": [1], "mult": {"1": 2}, "class": stratum},
            {"I": [1, 2], "mult": {"1": 2, "2": 3}, "class": {"u_coeffs": [[-1, 5]], "extras": {}}},
        ],
    }
    path = tmp_path / "snc.json"
    path.write_text(json.dumps(snc))
    code, out, _ = run_cli(["nearby", "--data", str(path), "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    cls = MotivicClass.from_json_dict(data["nearby_class"])
    assert data["euler"] == {
        "complex": chi_complex(cls),
        "real": chi_real(cls).to_json_dict(),
        "a1": chi_a1(cls, QQ).to_json_dict(),
    }
    assert data["euler"]["complex"] != chi_a1(cls).rank()


def _seeded_snc(seed, extras=0, terms=2400):
    """SNC data shaped like the benchmark's nearby jobs: five strata (|I| = 1, 1, 2, 2, 3)
    and [X_0], each a class of ``terms`` u-terms, with a SpecC part of ``extras`` terms."""
    rng = random.Random(seed)

    def cls():
        exps = sorted(rng.sample(range(-terms, 3 * terms), terms))
        out = {"u_coeffs": [[e, rng.choice((-3, -2, -1, 1, 2, 3))] for e in exps], "extras": {}}
        if extras:
            spec = sorted(rng.sample(range(-extras, 3 * extras), extras))
            out["extras"]["SpecC"] = [[e, rng.choice((-2, -1, 1, 2))] for e in spec]
        return out

    strata = []
    for size in (1, 1, 2, 2, 3):
        index = sorted(rng.sample(range(1, 5), size))
        strata.append({"I": index, "mult": {str(i): rng.randrange(1, 5) for i in index},
                       "class": cls()})
    return {"dim": 3, "strata": strata, "x0_class": cls()}


def _sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


# recorded before the input was released stratum by stratum and the sum taken in one
# pass; the manifests name version 0.1.0 and the relative paths below
NEARBY_SHA256 = {
    "text": "57dc16bbf13916398b6cc1d49ca778507aa29666fe49cf2a3b04dcf8fbaf9942",
    "json": "6839f5623435a827f8758575f091f2f639e70b3b0a8640a339fc92141a489acd",
    "local-json": "e9fd8232eb0a8affe3f29f1c1d2cbba187afe3ffa9d4eaa307d210d7eccc0a50",
    "out": "bab71428029768f08e2bb8fac5b9b5fccab681423cabbd866ede8147a604d2fa",
    "out-manifest": "116d3b20aea5d26947f51675e225a35cd0dfc9f8bb720c344fdbaaed1cfcc634",
}


def test_nearby_output_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "snc.json").write_text(json.dumps(_seeded_snc(2400, extras=300)))
    argv = ["nearby", "--data", "snc.json"]
    for name, mode in (("text", []), ("json", ["--json"]), ("local-json", ["--local", "--json"])):
        code, out, _ = run_cli(argv + mode, capsys)
        assert code == 0 and _sha256(out) == NEARBY_SHA256[name], name
    code, out, _ = run_cli(argv + ["--out", "o.json"], capsys)
    assert code == 0 and out == ""
    for name, path in (("out", "o.json"), ("out-manifest", "o.json.manifest.json")):
        assert _sha256((tmp_path / path).read_bytes()) == NEARBY_SHA256[name], name


def test_nearby_json_peak_memory_is_bounded(tmp_path, monkeypatch):
    """A benchmark-shaped input (1.5 MB of decoded JSON) peaks at ~2.6 MB traced on
    Python 3.11; holding the decoded tree, the records and a class per |I| at once,
    and rendering text that JSON mode drops, took ~3.6 MB."""
    path = tmp_path / "snc.json"
    path.write_text(json.dumps(_seeded_snc(2401)))
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = dispatch(["nearby", "--data", str(path), "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 3.1 * 2**20


@pytest.mark.parametrize(
    "strata,where,op,args",
    [
        pytest.param({"I": [1]}, "stratum record", getitem, ("I", "I"), id="object"),
        pytest.param(5, "SNC data", iter, (5,), id="number"),
        pytest.param("ab", "stratum record", getitem, ("a", "I"), id="string"),
        pytest.param(None, "SNC data", iter, (None,), id="null"),
        pytest.param([[1]], "stratum record", getitem, ([1], "I"), id="stratum-is-a-list"),
        pytest.param([{"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": 5}}],
                     "stratum record", iter, (5,), id="u_coeffs-is-a-number"),
    ],
)
def test_malformed_strata_keep_their_error_line(strata, where, op, args, tmp_path, capsys):
    # the line is the parent's: the place that failed and the TypeError it met
    path = tmp_path / "snc.json"
    path.write_text(json.dumps({"dim": 2, "strata": strata}))
    code, out, err = run_cli(["nearby", "--data", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: malformed {where}: {_type_error(op, *args)}\n"


_SQUARE = [[[[1, 0], 1]], [[[0, 1], 1]]]


@pytest.mark.parametrize(
    "payload,message",
    [
        pytest.param([["x", "y"], _SQUARE], "the top level must be a JSON object", id="top-list"),
        pytest.param("xy", "the top level must be a JSON object", id="top-string"),
        pytest.param({"vars": "xy", "polys": _SQUARE},
                     '"vars" must be a JSON list of strings', id="vars-string"),
        pytest.param({"vars": [1, 2], "polys": _SQUARE},
                     '"vars" must be a JSON list of strings', id="vars-numbers"),
        pytest.param({"vars": {"x": 0, "y": 1}, "polys": _SQUARE},
                     '"vars" must be a JSON list of strings', id="vars-object"),
        pytest.param({"vars": None, "polys": _SQUARE},
                     '"vars" must be a JSON list of strings', id="vars-null"),
        pytest.param({"vars": ["x", "y"], "polys": {"p": _SQUARE[0], "q": _SQUARE[1]}},
                     '"polys" must be a JSON list', id="polys-object"),
        pytest.param({"vars": ["x", "y"], "polys": "p"}, '"polys" must be a JSON list',
                     id="polys-string"),
    ],
)
def test_malformed_polynomial_payload_is_refused(payload, message, tmp_path, capsys):
    # a malformed map is never read as names: one line naming the field that is wrong
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["ekl", "--map", str(path)], capsys)
    assert (code, out, err) == (1, "", f"error: malformed polynomial payload: {message}\n")


@pytest.mark.parametrize(
    "argv,cls,json_renders,text_renders",
    [
        pytest.param(["dt-a3", "--order", "10", "--output", "motivic"], MotivicClass, 0, 11, id="dt-a3"),
        # the nearby class is rendered into the payload; the virtual class only for text
        pytest.param(["nearby", "--data", "{hyperbola}"], MotivicClass, 1, 2, id="nearby"),
        # gv_compare renders the direct and the closed class into its description
        pytest.param(["gv", "--m", "3", "--compare"], GwAlphaElement, 3, 3, id="gv"),
    ],
)
def test_text_is_built_only_in_text_mode(argv, cls, json_renders, text_renders, tmp_path,
                                         capsys, monkeypatch):
    path = tmp_path / "snc.json"
    path.write_text(json.dumps(HYPERBOLA))
    argv = [str(path) if arg == "{hyperbola}" else arg for arg in argv]
    calls = []
    render = cls.render
    monkeypatch.setattr(cls, "render", lambda self, *a: calls.append(1) or render(self, *a))
    for mode, renders in ((["--json"], json_renders), (["--out", str(tmp_path / "o.json")], json_renders),
                          ([], text_renders)):
        calls.clear()
        code, _, _ = run_cli(argv + mode, capsys)
        assert code == 0 and len(calls) == renders, mode


def test_gv_subcommand(capsys):
    code, out, _ = run_cli(["gv", "--m", "1", "--compare"], capsys)
    assert code == 0
    assert "m=1 (N=3)" in out
    assert "closed form unavailable" in out
    code, out, _ = run_cli(["gv", "--m", "2", "--compare", "--json"], capsys)
    data = json.loads(out)
    direct = GwAlphaElement.from_json_dict(data["direct"])
    assert direct.rank() == 50
    assert data["compare"]["alpha_factor_match"] is True


@pytest.mark.parametrize("label", ["Q", "R", "F5"])
def test_gv_without_compare_prints_the_direct_class_of_the_report(label, capsys):
    # the job computes the direct class alone; the report of gv_compare is the oracle
    from arithdt.castelnuovo import gv_compare
    from arithdt.fields import parse_field_label
    from arithdt.jsonout import write_json

    for m in range(1, 41):
        report = gv_compare(m, parse_field_label(label))
        payload = {"m": report.m, "fiber_dim": report.fiber_dim, "direct": report.direct.to_json_dict(),
                   "rendered": report.direct.render(), "rank": report.rank_direct}
        argv = ["gv", "--m", str(m), "--field", label]
        assert run_cli(argv, capsys) == (0, f"m={m} (N={report.fiber_dim}): {payload['rendered']}\n", "")
        code, out, err = run_cli(argv + ["--json"], capsys)
        expected = io.StringIO()
        write_json(expected, {**payload, "manifest": json.loads(out)["manifest"]})
        assert (code, out, err) == (0, expected.getvalue(), "")


def test_gv_over_unordered_fields(capsys):
    code, out, _ = run_cli(["gv", "--m", "3", "--field", "C"], capsys)
    assert code == 0 and out.startswith("m=3 (N=19): ")
    for label in ("C", "F5"):
        code, out, _ = run_cli(["gv", "--m", "3", "--field", label, "--compare", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["compare"]["signatures_agree"] is None


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(["oracle", "pp", "--n", "6"], capsys)
    assert code == 0 and out.strip() == "48"
    code, out, _ = run_cli(["oracle", "spp", "--n", "10"], capsys)
    assert code == 0 and out.strip() == "22"


def test_selftest_subcommand(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_a_failed_selftest_is_one_error_line(monkeypatch, capsys):
    from arithdt.commands import selftest

    suite = selftest.run_selftest
    failing = "dt: MacMahon vs enumeration"
    monkeypatch.setattr(selftest, "run_selftest",
                        lambda: [(name, ok and name != failing) for name, ok in suite()])
    code, out, err = run_cli(["selftest"], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and failing in err


def test_deterministic_output_bytes(capsys):
    _, first, _ = run_cli(["dt-a3", "--order", "5", "--output", "arithmetic", "--json"], capsys)
    _, second, _ = run_cli(["dt-a3", "--order", "5", "--output", "arithmetic", "--json"], capsys)
    assert first == second
    _, third, _ = run_cli(["gv", "--m", "3", "--compare", "--json"], capsys)
    _, fourth, _ = run_cli(["gv", "--m", "3", "--compare", "--json"], capsys)
    assert third == fourth


def test_out_file_writes_manifest(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(
        ["gw", "--op", "add", "--a", "<1>", "--b", "<-1>", "--out", str(out_path)], capsys
    )
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert GwElement.from_json_dict(payload["value"]).gw_equal(GwElement.hyperbolic(QQ))
    manifest = json.loads((tmp_path / "result.json.manifest.json").read_text())
    assert manifest["subcommand"] == "gw"
    assert manifest["parameters"]["op"] == "add"
    assert manifest["outputs"] == [str(out_path)]


# -- the strict parser against argparse -------------------------------------------

# values the string options take, each read by the parser as it is; the handler refuses some.
# A value that starts with "- " is a value to argparse, as it holds a space.
STRING_VALUES = {
    "--a": ["<2>", "H", "3*<1> + 2*<-1>", "<1/0>", "- 3*<1> + <2>"],
    "--b": ["<2>", "H - <3>", "- H", "- x=y"],
    "--matrix": ["[[0,1],[1,0]]", "[[1]"],
    "--field": ["Q", "R", "F5", "Fx", "- x=y"],
    "--map": ["map.json"],
    "--data": ["snc.json"],
    "--out": ["o.json"],
}
LARGEST_INT = {"--order": 8, "--m": 3, "--n": 5}
MUTATIONS = ["abbreviate", "equals", "dash", "repeat", "drop", "-h", "--", "stray"]


@st.composite
def command_lines(draw):
    """(argv, well_formed): a command line made from cli.COMMANDS, and whether the
    strict parser should read it.  A line is near-valid when it draws a bad choice
    or int (a positional's among them), or one of MUTATIONS: a repeated or dropped
    positional too."""
    name = draw(st.sampled_from(["gw", "dt-a3", "ekl", "nearby", "gv", "oracle"]))
    keywords = dict(cli.COMMANDS[name][1])
    well_formed = True
    pairs = []
    for option, kw in keywords.items():
        if not option.startswith("--"):
            pairs.append([draw(st.sampled_from([*kw["choices"], "nope"]))])
            well_formed &= pairs[-1][0] != "nope"
        elif not kw.get("required") and draw(st.booleans()):
            continue
        elif kw.get("action") == "store_true":
            pairs.append([option])
        elif "choices" in kw:
            pairs.append([option, draw(st.sampled_from([*kw["choices"], "nope"]))])
            well_formed &= pairs[-1][1] != "nope"
        elif kw.get("type") is int:
            pairs.append([option, draw(st.sampled_from([*map(str, range(LARGEST_INT[option] + 1)), "x"]))])
            well_formed &= pairs[-1][1] != "x"
        else:
            pairs.append([option, draw(st.sampled_from(STRING_VALUES[option]))])
    pairs = draw(st.permutations(pairs))
    mutation = draw(st.none() | st.sampled_from(MUTATIONS))
    valued = [i for i, pair in enumerate(pairs) if len(pair) == 2]
    if mutation == "abbreviate":
        long = [i for i, pair in enumerate(pairs) if len(pair[0]) > 3 and pair[0].startswith("--")]
        if long:
            i = draw(st.sampled_from(long))
            prefix = pairs[i][0][:draw(st.integers(3, len(pairs[i][0]) - 1))]
            if prefix not in keywords:
                pairs[i] = [prefix, *pairs[i][1:]]
                well_formed = False
    elif mutation in ("equals", "dash") and valued:
        i = draw(st.sampled_from(valued))
        option, value = pairs[i]
        if mutation == "equals":
            pairs[i] = [f"{option}={value}"]
        else:
            pairs[i] = [option, draw(st.sampled_from(["-<2>", "-5", "-h x"]))]
        well_formed = False
    elif mutation == "repeat" and pairs:
        pairs.append(list(draw(st.sampled_from(pairs))))
        well_formed = False
    elif mutation == "drop":
        required = [i for i, pair in enumerate(pairs)
                    if not pair[0].startswith("-") or keywords.get(pair[0], {}).get("required")]
        if required:
            del pairs[draw(st.sampled_from(required))]
            well_formed = False
    elif mutation in ("-h", "--", "stray"):
        pairs.insert(draw(st.integers(0, len(pairs))), ["positional" if mutation == "stray" else mutation])
        well_formed = False
    return [name, *(token for pair in pairs for token in pair)], well_formed


@pytest.fixture(scope="module")
def argv_directory(tmp_path_factory):
    """A working directory holding the input files the command lines name; every file a
    job writes, under a name that a mutation made too, is written there."""
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "map.json").write_text(json.dumps({"vars": ["x", "y"], "polys": [[[[2, 0], "1"]], [[[0, 3], "1"]]]}))
    (tmp / "snc.json").write_text(json.dumps(HYPERBOLA))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)
        yield tmp


@settings(max_examples=200, deadline=None)
@given(line=command_lines())
def test_strict_parser_reads_what_argparse_reads(line, argv_directory):
    argv, well_formed = line
    strict = cli.strict_args(argv)
    assert (strict is not None) == well_formed, argv
    if strict is not None:
        assert vars(strict) == vars(cli.build_parser().parse_args(argv))
    with mock.patch.object(cli, "strict_args", lambda argv: None):
        by_argparse = _run(argv)
    assert _run(argv) == by_argparse


@pytest.mark.parametrize(
    "argv",
    [
        ["gw", "--op", "diagonalize", "--matrix", "[[0,1],[1,0]"],
        ["ekl", "--map", "{bad}"],
        ["nearby", "--data", "{bad}"],
        ["ekl", "--map", "{dir}"],
        ["gw", "--op", "rank", "--a", "<1/0>"],
        ["gw", "--op", "diagonalize", "--matrix", "5"],
        ["nearby", "--data", "{x0}"],
        ["gw", "--op", "rank", "--a", "<2>", "--out", "{missing}"],
        ["ekl", "--map", "{deep}"],
        ["nearby", "--data", "{deep}"],
        ["gw", "--op", "diagonalize", "--matrix", "{deep_text}"],
        ["gw", "--op", "rank", "--a", "{long_coeff}"],
        ["gw", "--op", "rank", "--a", "<2>", "--field", "{long_field}"],
        ["{long_cap}", "dt-a3", "--order", "3"],
        ["gw", "--op", "rank", "--a", "{long_gw}"],
        ["gw", "--op", "rank", "--a", "{long_nonunit}", "--field", "F5"],
        ["nearby", "--data", "{repeated_index}"],
        ["nearby", "--data", "{repeated_mult}"],
    ],
)
def test_bad_input_is_one_error_line(argv, tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vars": [')
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps({"dim": 2, "x0_class": {"u_coeffs": [["1/2", 1]]}, "strata": []}))
    missing = tmp_path / "missing-dir" / "x.json"
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)  # nested past the JSON decoder's recursion limit
    repeated_index, repeated_mult = tmp_path / "repeated-index.json", tmp_path / "repeated-mult.json"
    for path, stratum in ((repeated_index, {"I": [1, 1], "mult": {"1": 1}}),
                          (repeated_mult, {"I": [2], "mult": {"2": 1, "02": 1}})):
        stratum["class"] = {"u_coeffs": [[2, 1]]}
        path.write_text(json.dumps({"dim": 2, "strata": [stratum]}))
    paths = {
        "{bad}": str(bad), "{dir}": str(tmp_path), "{x0}": str(x0), "{missing}": str(missing),
        "{deep}": str(deep), "{deep_text}": "[" * 100_000,
        "{repeated_index}": str(repeated_index), "{repeated_mult}": str(repeated_mult),
        "{long_coeff}": "9" * 5000 + "*<1>",  # more digits than int() reads by default
        "{long_field}": "F" + "7" * 5000,
        "{long_gw}": "<" + "1" * 4999,  # no closing bracket
        "{long_nonunit}": "<5" + "0" * 3000 + ">",  # not a unit modulo 5
    }
    if argv[0] == "{long_cap}":  # the cap is read from the environment
        monkeypatch.setenv("ARITHDT_MAX_ORDER", "7" * 5000)
        argv = argv[1:]
    code, _, err = run_cli([paths.get(arg, arg) for arg in argv], capsys)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    # a long input is echoed cut short; the test's own directory counts as one short name
    assert len(err.replace(str(tmp_path), "<tmp>").encode()) < 200


def test_error_lines_echo_long_inputs_cut_short():
    assert brief("Fx") == "'Fx'" and brief(0.1) == "0.1" and brief(-5) == "-5"
    assert brief("7" * 80) == repr("7" * 80) and brief(10**80 - 1) == "9" * 80
    assert brief("7" * 81) == repr("7" * 40) + "... (81 characters)"
    assert brief(-(10**80)) == "-1" + "0" * 39 + "... (81 digits)"
    # past the 4,300 digits that str() takes
    assert brief(3 * 10**5000 + 1) == "3" + "0" * 39 + "... (5001 digits)"
    assert brief_str(Fraction(1, 5)) == "1/5"
    assert brief_str(Fraction(10**80, 3)) == "1" + "0" * 39 + "... (83 characters)"
    assert brief_str(Fraction(3 * 10**5000 + 1, 11)) == "3" + "0" * 39 + "... (5001 digits)/11"


def _stratum(index_set, u_coeffs):
    return {"I": list(index_set), "mult": {str(i): 1 for i in index_set},
            "class": {"u_coeffs": u_coeffs}}


def _nearby(strata):
    """The argv of a nearby run on ``strata``, written to a file under the given directory."""

    def argv(tmp_path):
        path = tmp_path / "snc.json"
        path.write_text(json.dumps({"dim": 2, "strata": strata}))
        return ["nearby", "--data", str(path)]

    return argv


def _gw(*argv):
    return lambda _: ["gw", *argv]


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "command",
    [
        pytest.param(_nearby([_stratum([1], [[0, NINES]]), _stratum([2], [[0, NINES]])]), id="sum-of-two"),
        # the middle binomial coefficients of (1 - L)^14999 have 4,513 digits
        pytest.param(_nearby([_stratum(range(15000), [[0, 1]])]), id="one-stratum-of-15000"),
        # each coefficient parses, but the rank and the signature are their sum
        pytest.param(_gw("--op", "rank", "--a", f"{NINES}*<1> + {NINES}*<2>"), id="gw-rank"),
        pytest.param(_gw("--op", "signature", "--a", f"{NINES}*<1> + {NINES}*<2>"), id="gw-signature"),
        pytest.param(_gw("--op", "mul", "--a", f"{'7' * 2200}*<1>", "--b", f"{'7' * 2200}*<2>"), id="gw-mul"),
    ],
)
def test_an_answer_past_the_digit_limit_is_one_error_line(command, mode, tmp_path, capsys):
    code, out, err = run_cli(command(tmp_path) + mode, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {IntegerTooLongError()}\n"


def test_a_long_int_met_only_by_the_json_writer_is_one_error_line(tmp_path, capsys):
    # each coefficient renders, but chi_complex of the class is their sum
    argv = _nearby([_stratum([1], [[0, NINES], [2, NINES]])])(tmp_path)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out.startswith(f"nearby_class: {NINES}*L + {NINES}")
    code, out, err = run_cli(argv + ["--json"], capsys)
    assert code == 1 and out == "" and err == f"error: {IntegerTooLongError()}\n"
    out_path = tmp_path / "o.json"
    code, out, err = run_cli(argv + ["--out", str(out_path)], capsys)
    assert code == 1 and out == "" and err == f"error: {IntegerTooLongError()}\n"
    # no partial answer, and no manifest, is left behind
    assert not out_path.exists() and not (tmp_path / "o.json.manifest.json").exists()


def test_other_value_errors_are_not_taken_for_the_digit_limit(monkeypatch):
    closed = io.StringIO()
    closed.close()
    monkeypatch.setattr(sys, "stdout", closed)
    with pytest.raises(ValueError, match="closed file"):
        dispatch(["gw", "--op", "rank", "--a", "<1>"])


@pytest.mark.parametrize(
    "subcommand,payload",
    [
        pytest.param("ekl", _ekl_map(coeff=0.1), id="ekl-float-coeff"),
        pytest.param("ekl", _ekl_map(coeff=True), id="ekl-bool-coeff"),
        pytest.param("ekl", _ekl_map(coeff="1/0"), id="ekl-zero-denominator"),
        pytest.param("ekl", _ekl_map(exponent=2.5), id="ekl-float-exponent"),
        pytest.param("ekl", _ekl_map(exponent=True), id="ekl-bool-exponent"),
        pytest.param(
            "ekl", {"vars": ["x", "x"], "polys": [[[[1, 0], 1]], [[[0, 1], 1]]]},
            id="ekl-duplicate-vars",
        ),
        pytest.param("nearby", _snc(u_coeffs=[(0, 1.5)]), id="nearby-float-coeff"),
        pytest.param("nearby", _snc(u_coeffs=[(0.9, 1)]), id="nearby-float-exponent"),
        pytest.param("nearby", _snc(u_coeffs=[(0, False)]), id="nearby-bool-coeff"),
        pytest.param("nearby", _snc(mult=1.7), id="nearby-float-mult"),
        pytest.param("nearby", _snc(dim=2.0), id="nearby-float-dim"),
    ],
)
def test_inexact_json_numbers_are_refused(subcommand, payload, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    flag = "--map" if subcommand == "ekl" else "--data"
    code, out, err = run_cli([subcommand, flag, str(path)], capsys)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_ekl_rational_string_coefficient(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(_ekl_map(coeff="1/10")))
    code, out, _ = run_cli(["ekl", "--map", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "<10>"


def test_python_dash_m_runs_the_cli():
    src = Path(arithdt.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "arithdt", "--version"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == arithdt.__version__


def _ekl_process(tmp_path, payload, *flags):
    """Run ``arithdt ekl --map`` with ``flags`` as a whole process; its result and wall time."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    src = Path(arithdt.__file__).resolve().parent.parent
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "arithdt", "ekl", "--map", str(path), *flags],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return proc, time.perf_counter() - start


def test_ekl_ten_variable_map_in_bounded_time(tmp_path):
    """{x_i^2 : i < 10}: ~0.5 s; a Laplace expansion without memo took ~37 s."""
    n = 10
    payload = {
        "vars": [f"x{i}" for i in range(n)],
        "polys": [[[[2 * (j == i) for j in range(n)], "1"]] for i in range(n)],
    }
    proc, seconds = _ekl_process(tmp_path, payload)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["512*<1> + 512*<-1>", "rank: 1024"]
    assert seconds < 10


def test_ekl_milnor_dimension_1089_in_bounded_time(tmp_path):
    """The gradient of x^34 + y^34: ~0.3 s; the dense Gram row walk took ~2-2.6 s."""
    payload = {"vars": ["x", "y"], "polys": [[[[33, 0], "34"]], [[[0, 33], "34"]]]}
    proc, seconds = _ekl_process(tmp_path, payload)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:3] == ["545*<1> + 544*<-1>", "rank: 1089", "signature: 1"]
    assert seconds < 5


def test_ekl_thin_staircase_in_bounded_time(tmp_path):
    """(x*y, x^2000 + y^2000), dim 4,000: ~0.4-0.6 s; the box of 2001^2 points took ~5.7 s.

    Its class is N*H.  A = Q[x, y]/(x*y, x^N + y^N) is graded, with A_0 = <1>,
    A_i = <x^i, y^i> for 0 < i < N and socle A_N = <x^N> (y^N = -x^N).  The
    Jacobian is -2N x^N, so phi is dual to x^N and vanishes off A_N.  The
    form pairs A_i perfectly with A_{N-i} and A_i with A_j not at all unless
    i + j = N, so each pair i < N - i is hyperbolic of rank 2 dim A_i.  For
    even N the middle degree has x^{N/2} * x^{N/2} = x^N, y^{N/2} * y^{N/2} =
    -x^N and x^{N/2} * y^{N/2} = 0, so it gives <c> + <-c> = H.  The rank is
    dim A = 2N, so the class is N*H.
    """
    N = 2000
    payload = {"vars": ["x", "y"], "polys": [[[[1, 1], "1"]], [[[N, 0], "1"], [[0, N], "1"]]]}
    proc, seconds = _ekl_process(tmp_path, payload, "--contract-h")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["2000*H", "rank: 4000", "signature: 0"]
    assert seconds < 3


@pytest.mark.parametrize("field", [QQ, RR], ids=["Q", "R"])
def test_ekl_thin_staircase_is_n_hyperbolic_planes(field):
    # the proof is in the docstring of test_ekl_thin_staircase_in_bounded_time
    for N in range(1, 41):
        assert ekl_class(thin_staircase(N), field).gw_class == GwElement.hyperbolic(field) * N, N


def test_thin_staircase_algebra_at_dimension_20000_in_bounded_time():
    """(x*y, x^10000 + y^10000): ~0.6 s in process, with 30,000 walk candidates.

    The box had 10001^2 = 10^8 points.  The whole ``ekl`` job on it takes
    ~8 s, nearly all in the Gram elimination, so it has no bound here.
    """
    start = time.perf_counter()
    algebra = QuotientAlgebra.of_ideal(thin_staircase(10_000))
    seconds = time.perf_counter() - start
    assert algebra.dimension == 20_000
    assert seconds < 5


def test_ekl_milnor_dimension_4225_in_bounded_time_and_memory(tmp_path):
    """The gradient of x^66 + y^66: ~1.2 s at ~160 MB peak RSS.

    A dense list-of-lists Gram, copied into a tuple and read back into row
    dicts by the elimination, took 297 MB.  The peak is read in a fresh
    child as its own RUSAGE_SELF, so no earlier test's children count.
    """
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "polys": [[[[65, 0], "66"]], [[[0, 65], "66"]]]}))
    script = (
        "import resource, sys\n"
        "from arithdt.cli import dispatch\n"
        "code = dispatch(['ekl', '--map', sys.argv[1]])\n"
        "print('peak_rss_kb:', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "sys.exit(code)\n"
    )
    src = Path(arithdt.__file__).resolve().parent.parent
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    seconds = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["2113*<1> + 2112*<-1>", "rank: 4225"]
    peak_mb = int(lines[-1].split()[1]) / 1024
    assert seconds < 10
    assert peak_mb < 220
