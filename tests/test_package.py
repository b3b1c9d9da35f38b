"""The package loads each submodule on first use, and the CLI only what a job runs."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arithdt

# arithdt.__all__ as it was when the package imported every submodule eagerly
PUBLIC_NAMES = [
    "BaseField", "CC", "CastelnuovoInput", "CoefficientRing", "ConjugatePair", "EklResult",
    "GAUSSIAN_RING", "GaussianInteger", "GeneratorSpec", "GvComparison", "GwAlphaElement",
    "GwElement", "INT_RING", "L", "MOTIVIC_RING", "MatrixTriple", "MilnorReport", "MotivicClass",
    "MultiPoly", "PartitionFunctionResult", "QQ", "QuotientAlgebra", "RR", "SncData",
    "SquareClass", "StratumRecord", "TruncatedSeries", "alpha_power", "buchberger",
    "castelnuovo", "castelnuovo_bound", "chi_a1", "chi_complex", "chi_real",
    "count_plane_partitions", "count_symmetric_plane_partitions", "diagonalize_symmetric", "dt",
    "ekl", "ekl_class", "errors", "fiber_dimension", "fields", "finite_field",
    "global_degree_univariate", "grassmannian_class", "grevlex_key", "groebner",
    "gv_arithmetic_direct", "gv_closed_form", "gv_compare", "gv_virtual_class_motivic", "gw",
    "gw_alpha_ring", "gw_ring", "hasse_invariant", "hilbert_symbol", "local_degree_simple",
    "local_nearby_class", "macmahon", "macmahon_symmetric", "milnor_chi_relation",
    "milnor_number_a1", "motivic", "multipoly", "nearby", "nearby_class", "partition_function",
    "partitions", "plane_partitions", "projective_space_class", "quadratic_point_generator",
    "series", "trace_form", "trace_potential", "trace_potential_gradient", "verify_macmahon",
    "verify_symmetric", "virtual_class_critical_locus", "virtual_class_torus", "z_arithmetic",
    "z_motivic",
]


def test_all_keeps_the_eager_names():
    assert arithdt.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    namespace = {}
    exec("from arithdt import *", namespace)
    listed = dir(arithdt)
    for name in PUBLIC_NAMES:
        value = getattr(arithdt, name)
        assert namespace[name] is value
        assert name in listed
    assert arithdt.dt is sys.modules["arithdt.dt"]
    assert arithdt.QQ is arithdt.fields.QQ
    assert arithdt.chi_a1 is arithdt.motivic.chi_a1


def test_every_domain_error_is_raised_in_the_library():
    from arithdt import errors

    # every module, those of arithdt.commands too
    source = "\n".join(path.read_text() for path in Path(errors.__file__).parent.rglob("*.py"))
    domain = [name for name, value in vars(errors).items()
              if isinstance(value, type) and issubclass(value, errors.ArithdtError)]
    # a use is "raise Name" or a call "Name(", but not the "class Name(" that defines it
    unused = [name for name in domain
              if not re.search(rf"raise {name}\b|(?<!class ){name}\(", source)]
    assert len(domain) > 10 and unused == []


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        arithdt.no_such_name


# runs one CLI job in a fresh interpreter, prints every module it loaded and exits as the job did
_LOADED = """
import sys
from arithdt.cli import dispatch
try:
    status = dispatch(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
print(" ".join(sorted(sys.modules)))
sys.exit(status)
"""


def _modules_after(*argv, code=_LOADED, status=0):
    src = Path(arithdt.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=60,
        # no bytecode is written into the tree under test, which would change its start-up time
        env={"PYTHONPATH": str(src), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == status, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _loaded_after(*argv):
    """The arithdt modules one CLI job loads."""
    return {m for m in _modules_after(*argv) if m.split(".")[0] == "arithdt"}


# what parsing and dispatch need: ``--version`` loads these and nothing else
CLI_ONLY = {"arithdt", "arithdt.cli", "arithdt.errors"}
# what every job adds: the base fields, and the package of the subcommand modules
JOB = CLI_ONLY | {"arithdt.fields", "arithdt.commands"}
GW_ONLY = JOB | {"arithdt.commands.gw", "arithdt.gw", "arithdt.squares"}
DT_ONLY = JOB | {"arithdt.commands.dt_a3", "arithdt.dt", "arithdt.series"}

# a well-formed command line is read without argparse, which imports gettext, and whose
# help formatter imports locale
ARGPARSE = {"argparse", "gettext", "locale"}

@pytest.mark.parametrize("argv,loaded", [(["--version"], CLI_ONLY),
                                         (["gw", "--op", "rank", "--a", "<1>"], GW_ONLY)],
                         ids=["version", "gw"])
def test_gw_jobs_load_four_modules(argv, loaded):
    modules = _modules_after(*argv)
    assert {m for m in modules if m.split(".")[0] == "arithdt"} == loaded
    # text output reads and writes no JSON: neither the writer nor the json package is compiled
    assert "json" not in modules
    # ``--version`` is answered without argparse too
    assert modules & ARGPARSE == set()


def test_version_prints_argparse_bytes(monkeypatch, capsys):
    from arithdt import cli

    answers = []
    for strict in (cli.strict_args, lambda argv: None):  # None: argparse reads the command line
        monkeypatch.setattr(cli, "strict_args", strict)
        with pytest.raises(SystemExit) as exc:
            cli.dispatch(["--version"])
        answers.append((exc.value.code, capsys.readouterr()))
    assert answers[0] == answers[1] == (0, (arithdt.__version__ + "\n", ""))


# a job that makes no rational loads no ``fractions``, with the ``decimal`` and
# ``numbers`` that it imports
FRACTIONS = {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--version"], id="version"),
        pytest.param(["gw", "--op", "mul", "--a", "<6> + <10>", "--b", "<15>"], id="gw-mul"),
        *(pytest.param(["dt-a3", "--order", "6", "--output", output, *flags], id=f"dt-a3-{output}-{mode}")
          for output in ("motivic", "arithmetic", "complex", "real")
          for mode, flags in (("text", []), ("json", ["--json"]))),
    ],
)
def test_jobs_without_a_rational_load_no_fractions(argv):
    assert _modules_after(*argv) & FRACTIONS == set()


def test_jobs_with_a_rational_load_fractions(tmp_path):
    # the lazy imports are live: a rational rep, and an EKL Gram matrix
    assert "fractions" in _modules_after("gw", "--op", "rank", "--a", "<1/3>")
    path = tmp_path / "map.json"
    path.write_text('{"vars": ["x", "y"], "polys": [[[[2, 0], "1"]], [[[0, 3], "1"]]]}')
    assert "fractions" in _modules_after("ekl", "--map", str(path))


def test_gw_json_job_loads_the_writer():
    assert _loaded_after("gw", "--op", "rank", "--a", "<1>", "--json") == GW_ONLY | {"arithdt.jsonout"}


def test_dt_job_loads_no_algebra_modules():
    loaded = _loaded_after("dt-a3", "--order", "5")
    assert "arithdt.dt" in loaded
    assert loaded.isdisjoint({"arithdt.groebner", "arithdt.ekl", "arithdt.multipoly"})


@pytest.mark.parametrize("output,rings", [("complex", set()), ("real", {"arithdt.gaussian"})])
def test_complex_and_real_series_jobs_load_no_quadratic_form(output, rings):
    # M(-t) is a series over Z and (-i)^n M^sym_n one over Z[i]: no motivic class or
    # quadratic form is made
    loaded = _loaded_after("dt-a3", "--order", "5", "--output", output)
    assert loaded == DT_ONLY | rings


@pytest.mark.parametrize("flags,writer", [([], set()), (["--json"], {"arithdt.jsonout"})],
                         ids=["text", "json"])
def test_arithmetic_series_job_loads_no_motivic_class(flags, writer):
    # the quadratic forms are read off M and M^sym, so arithdt.motivic is not compiled
    loaded = _loaded_after("dt-a3", "--order", "5", "--output", "arithmetic", *flags)
    rings = {"arithdt.gw", "arithdt.squares", "arithdt.gwalpha", "arithdt.gaussian"}
    assert loaded == DT_ONLY | rings | writer


@pytest.mark.parametrize("flags,writer", [([], set()), (["--json"], {"arithdt.jsonout"})],
                         ids=["text", "json"])
def test_motivic_series_job_loads_no_quadratic_form(flags, writer):
    # the series is read off one packed integer per t^n, and [SpecC]'s spec, a
    # GwAlphaElement, is built only on first use: no gw, gwalpha or gaussian
    loaded = _loaded_after("dt-a3", "--order", "5", "--output", "motivic", *flags)
    assert loaded == DT_ONLY | {"arithdt.motivic"} | writer


@pytest.mark.parametrize(
    "flags,classifier",
    [([], set()), (["--compare", "--json"], {"arithdt.jsonout", "arithdt.forms", "arithdt.factor"})],
    ids=["text", "compare-json"],
)
def test_gv_job_loads_no_motivic_class(flags, classifier):
    # the refined class is the alpha-sum of two terms, so arithdt.motivic is not compiled;
    # only the comparison with the closed form decides equality in GW(k), with forms and
    # the factoring of its Hasse invariants
    loaded = _loaded_after("gv", "--m", "7", *flags)
    rings = {"arithdt.gw", "arithdt.squares", "arithdt.gwalpha", "arithdt.gaussian"}
    assert loaded == JOB | {"arithdt.commands.gv", "arithdt.castelnuovo"} | rings | classifier


_MAP = '{"vars": ["x", "y"], "polys": [[[[2, 0], "1"]], [[[0, 3], "1"]]]}'
# (2x, 3y): its class is <6>, whose rep is factored
_MAP_SIX = '{"vars": ["x", "y"], "polys": [[[[1, 0], "2"]], [[[0, 1], "3"]]]}'


@pytest.mark.parametrize(
    "argv,factors",
    [
        *(pytest.param(["dt-a3", "--order", "6", "--output", output, *flags], False,
                       id=f"dt-a3-{output}-{'json' if flags else 'text'}")
          for output in ("motivic", "arithmetic", "complex", "real") for flags in ([], ["--json"])),
        pytest.param(["nearby", "--data", "{snc}"], False, id="nearby"),
        pytest.param(["gw", "--op", "rank", "--a", "<1>"], False, id="gw-unit"),
        pytest.param(["gw", "--op", "rank", "--a", "<6>"], True, id="gw-six"),
        pytest.param(["gw", "--op", "rank", "--a", "<2>", "--field", "F5"], True, id="gw-F5"),
        pytest.param(["ekl", "--map", "{map}"], False, id="ekl"),
        pytest.param(["ekl", "--map", "{map_six}"], True, id="ekl-six"),
        pytest.param(["gv", "--m", "7", "--compare"], True, id="gv-compare"),
    ],
)
def test_factor_is_loaded_only_by_jobs_that_factor(argv, factors, tmp_path):
    # the square class of +-1 needs no factoring; every other rep, the prime test of
    # F_p, and the Hasse invariants of a classified form do.  The class of _MAP,
    # 3*<1> + 3*<-1>, is eliminated, never classified, so its job factors nothing
    files = {"map": tmp_path / "map.json", "snc": tmp_path / "snc.json",
             "map_six": tmp_path / "map_six.json"}
    files["map"].write_text(_MAP)
    files["map_six"].write_text(_MAP_SIX)
    files["snc"].write_text(json.dumps(_SNC))
    loaded = _loaded_after(*(a.format(**files) for a in argv))
    assert ("arithdt.factor" in loaded) == factors


@pytest.mark.parametrize(
    "argv",
    [
        *(["dt-a3", "--order", "6", "--output", output, *flags]
          for output in ("motivic", "arithmetic", "complex", "real") for flags in ([], ["--json"])),
        *(["gw", "--op", op, "--a", "<2> + <3>", "--b", "<6>"] for op in ("rank", "add", "mul")),
    ],
    ids=lambda argv: "-".join(argv[:4:2] if argv[0] == "gw" else [argv[0], argv[4], *argv[5:]]),
)
def test_ring_jobs_load_no_form_classifier(argv):
    # the quadratic forms of these jobs are added and multiplied, never classified
    assert "arithdt.forms" not in _loaded_after(*argv)


def test_jobs_that_classify_forms_load_the_classifier():
    # equality of classes compares invariants
    for argv in (["gw", "--op", "equal", "--a", "<2> + <-2>", "--b", "H"], ["gv", "--m", "7", "--compare"]):
        assert "arithdt.forms" in _loaded_after(*argv), argv


def test_ekl_job_does_not_load_motivic(tmp_path):
    path = tmp_path / "map.json"
    path.write_text('{"vars": ["x", "y"], "polys": [[[[1, 0], "2"]], [[[0, 1], "-2"]]]}')
    loaded = _loaded_after("ekl", "--map", str(path))
    assert "arithdt.ekl" in loaded
    assert "arithdt.motivic" not in loaded
    # GW(k)(alpha) is named only in an annotation of degrees, which ekl does not load
    assert "arithdt.gwalpha" not in loaded


# runs one CLI job like _LOADED, then prints the arithdt modules it loaded, and each
# function and class that they define as module:name
_COMPILED = """
import sys
from arithdt.cli import dispatch
try:
    status = dispatch(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
modules = {name: module for name, module in list(sys.modules.items()) if name.split(".")[0] == "arithdt"}
print(" ".join([*modules, *(f"{module_name}:{name}" for module_name, module in modules.items()
                            for name, value in vars(module).items()
                            if getattr(value, "__module__", None) == module_name)]))
sys.exit(status)
"""


def _compiled_after(*argv):
    """The arithdt modules one CLI job loads, and the names of the functions and
    classes defined in them: a pin on these holds wherever the code is moved."""
    tokens = _modules_after(*argv, code=_COMPILED)
    return {t for t in tokens if ":" not in t}, {t.partition(":")[2] for t in tokens if ":" in t}


DT_JOBS = [
    pytest.param(["dt-a3", "--order", "6", "--output", output, *flags],
                 id=f"dt-a3-{output}-{'json' if flags else 'text'}")
    for output in ("motivic", "arithmetic", "complex", "real") for flags in ([], ["--json"])
]
TRACE_POTENTIAL = {"MatrixTriple", "commutator", "gradient_vanishes", "trace_potential",
                   "trace_potential_gradient"}
SQUARE_CLASSES = {"SquareClass", "square_class_rep", "legendre_symbol", "least_nonresidue"}


@pytest.mark.parametrize("argv", DT_JOBS)
def test_dt_jobs_compile_no_trace_potential(argv):
    modules, names = _compiled_after(*argv)
    assert "arithdt.potential" not in modules
    assert names & TRACE_POTENTIAL == set()


@pytest.mark.parametrize("argv", [p for p in DT_JOBS if "arithmetic" not in p.values[0]],
                         ids=lambda argv: "-".join(argv[4:]))
def test_series_jobs_without_a_quadratic_form_compile_no_square_class(argv):
    # only the arithmetic series is made of quadratic forms
    modules, names = _compiled_after(*argv)
    assert "arithdt.squares" not in modules
    assert names & SQUARE_CLASSES == set()


def test_ekl_job_compiles_the_kernel_and_no_classifier(tmp_path):
    # the Gram matrix is eliminated, and its class never compared or classified
    path = tmp_path / "map.json"
    path.write_text(_MAP)
    modules, names = _compiled_after("ekl", "--map", str(path))
    assert {"arithdt.ekl", "arithdt.elimination"} <= modules
    assert modules.isdisjoint({"arithdt.forms", "arithdt.degrees"})
    assert "_diagonalize_rows" in names
    assert names.isdisjoint({"gw_equal", "hilbert_symbol", "hasse_invariant", "ConjugatePair",
                             "local_degree_simple", "milnor_number_a1", "milnor_chi_relation"})


@pytest.mark.parametrize(
    "argv,reads",
    [
        *(pytest.param(["dt-a3", "--order", "6", "--output", output, "--json"], False,
                       id=f"dt-a3-{output}") for output in ("motivic", "arithmetic", "complex", "real")),
        pytest.param(["gw", "--op", "mul", "--a", "<2> + <3>", "--b", "<6>", "--json"], False, id="gw"),
        pytest.param(["gv", "--m", "7", "--compare", "--json"], False, id="gv-compare"),
        pytest.param(["oracle", "pp", "--n", "4", "--json"], False, id="oracle"),
        pytest.param(["ekl", "--map", "{map}", "--json"], True, id="ekl"),
        pytest.param(["nearby", "--data", "{snc}", "--json"], True, id="nearby"),
    ],
)
def test_json_package_is_loaded_only_by_jobs_that_read_json(argv, reads, tmp_path):
    # the writer escapes strings with _json's encoder; ekl and nearby read their input
    files = {"map": tmp_path / "map.json", "snc": tmp_path / "snc.json"}
    files["map"].write_text(_MAP)
    files["snc"].write_text(json.dumps(_SNC))
    modules = _modules_after(*(a.format(**files) for a in argv))
    assert "arithdt.jsonout" in modules
    assert bool({m for m in modules if m.split(".")[0] == "json"}) == reads


def test_library_imports_only_the_standard_library():
    package = Path(arithdt.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):  # arithdt.commands too
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "arithdt" or top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_constants_live_with_their_rings():
    # a constant is built in the module of its type, when that module loads: the
    # export table is the one lazy hook, and a series over Z loads no other ring
    package = Path(arithdt.__file__).resolve().parent
    hooks = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if any(isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
               for node in tree.body):
            hooks.append(path.relative_to(package).as_posix())
    assert hooks == ["__init__.py"]
    imported = set()
    for node in ast.walk(ast.parse((package / "series.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            if node.level and not node.module:  # from . import name
                imported.update(alias.name for alias in node.names)
    rings = {"gaussian", "motivic", "gw", "gwalpha", "fractions"}
    assert {name.split(".")[-1] for name in imported} & rings == set()
    assert not any(isinstance(node, ast.Global)
                   for node in ast.walk(ast.parse((package / "motivic.py").read_text())))


# start-up is most of a short job: dataclasses alone, with the inspect it imports,
# cost about as much as all of arithdt's own modules
SLOW_IMPORTS = {"dataclasses", "inspect"}

_SNC = {
    "dim": 2,
    "strata": [
        {"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": [[2, 1], [0, -1]]}},
        {"I": [1, 2], "mult": {"1": 1, "2": 1}, "class": {"u_coeffs": [[0, 1]]}},
    ],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["gw", "--op", "mul", "--a", "<2> + <3>", "--b", "<6>", "--json"],
        ["dt-a3", "--order", "4", "--output", "real", "--json"],
        ["ekl", "--map", "{map}", "--json"],
        ["nearby", "--data", "{snc}", "--json"],
        ["gv", "--m", "2", "--compare", "--json"],
        ["oracle", "pp", "--n", "4", "--json"],
    ],
    ids=lambda argv: argv[0].lstrip("-"),
)
def test_no_job_imports_dataclasses_or_inspect(argv, tmp_path):
    files = {"map": tmp_path / "map.json", "snc": tmp_path / "snc.json"}
    files["map"].write_text('{"vars": ["x", "y"], "polys": [[[[2, 0], "1"]], [[[0, 3], "1"]]]}')
    files["snc"].write_text(json.dumps(_SNC))
    argv = [a.format(**files) for a in argv]
    bare = _modules_after(code="import sys; print(' '.join(sys.modules))")
    assert (_modules_after(*argv) - bare) & SLOW_IMPORTS == set()


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gw", "--op", "mul", "--a", "<2> + <3>", "--b", "<6>"],
        # a signed expression: argparse too reads a token with a space as a value
        pytest.param(["gw", "--op", "add", "--a", "<2>", "--b", "- 3*<5> + <-1>"], id="gw-signed"),
        *(["dt-a3", "--order", "6", "--output", output]
          for output in ("motivic", "arithmetic", "complex", "real")),
        ["ekl", "--map", "{map}", "--field", "R"],
        ["nearby", "--data", "{snc}"],
        ["gv", "--m", "2", "--compare"],
        ["oracle", "pp", "--n", "4"],
        ["selftest"],
    ],
    ids=lambda argv: f"dt-a3-{argv[-1]}" if argv[0] == "dt-a3" else argv[0],
)
def test_well_formed_jobs_load_no_argparse(argv, mode, tmp_path):
    files = {"map": tmp_path / "map.json", "snc": tmp_path / "snc.json"}
    files["map"].write_text('{"vars": ["x", "y"], "polys": [[[[2, 0], "1"]], [[[0, 3], "1"]]]}')
    files["snc"].write_text(json.dumps(_SNC))
    argv = [a.format(**files) for a in argv] + mode
    modules = _modules_after(*argv)
    assert modules & ARGPARSE == set()
    # only a dt-a3 job, and the selftest that runs every module, builds a series
    assert ("arithdt.series" in modules) == (argv[0] in ("dt-a3", "selftest"))


def test_other_command_lines_are_read_by_argparse():
    # an abbreviated option, and a usage error
    assert "argparse" in _modules_after("dt-a3", "--ord", "6")
    assert "argparse" in _modules_after("dt-a3", "--order", "6", "--output", "nope", status=2)
