"""The package loads each submodule on first use, and the CLI only what a job runs."""

import ast
import re
import shlex
import subprocess
import sys
import tempfile
import textwrap
from concurrent.futures import ThreadPoolExecutor
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


def test_version_prints_argparse_bytes(monkeypatch, capsys):
    from arithdt import cli

    answers = []
    for strict in (cli.strict_args, lambda argv: None):  # None: argparse reads the command line
        monkeypatch.setattr(cli, "strict_args", strict)
        with pytest.raises(SystemExit) as exc:
            cli.dispatch(["--version"])
        answers.append((exc.value.code, capsys.readouterr()))
    assert answers[0] == answers[1] == (0, (arithdt.__version__ + "\n", ""))


# What each CLI job loads: one row per command line, with the WATCHED groups of the standard
# library that it loads and a bare interpreter does not, and the arithdt modules it loads
# besides CLI, named without "arithdt.".  ``python tests/test_package.py`` prints the rows as
# the tree under test loads them, so a deliberate change is re-recorded in one diff; the
# README says why each module is split and each import lazy.  The class of _MAP,
# 3*<1> + 3*<-1>, is eliminated and never classified, so its ekl job factors nothing.
JOBS = {
    "version": ("--version", "", ""),
    "gw-rank": ("gw --op rank --a <1>", "", "commands commands.gw fields gw squares"),
    "gw-rank-json": ("gw --op rank --a <1> --json", "",
        "commands commands.gw fields gw jsonout squares"),
    "gw-rank-out": ("gw --op rank --a <1> --out {out}", "",
        "commands commands.gw fields gw jsonout squares"),
    "gw-rational": ("gw --op rank --a <1/3>", "fractions",
        "commands commands.gw factor fields gw squares"),
    "gw-six": ("gw --op rank --a <6>", "", "commands commands.gw factor fields gw squares"),
    "gw-F5": ("gw --op rank --a <2> --field F5", "",
        "commands commands.gw factor fields gw squares"),
    "gw-mul": ("gw --op mul --a '<6> + <10>' --b <15>", "",
        "commands commands.gw factor fields gw squares"),
    "gw-mul-json": ("gw --op mul --a '<6> + <10>' --b <15> --json", "",
        "commands commands.gw factor fields gw jsonout squares"),
    "gw-add-signed": ("gw --op add --a <2> --b '- 3*<5> + <-1>'", "",
        "commands commands.gw factor fields gw squares"),
    "gw-add-signed-json": ("gw --op add --a <2> --b '- 3*<5> + <-1>' --json", "",
        "commands commands.gw factor fields gw jsonout squares"),
    "gw-equal": ("gw --op equal --a '<2> + <-2>' --b H", "fractions",
        "commands commands.gw factor fields forms gw squares"),
    "dt-a3-motivic-text": ("dt-a3 --order 6 --output motivic", "",
        "commands commands.dt_a3 dt fields motivic series"),
    "dt-a3-motivic-json": ("dt-a3 --order 6 --output motivic --json", "",
        "commands commands.dt_a3 dt fields jsonout motivic series"),
    "dt-a3-arithmetic-text": ("dt-a3 --order 6 --output arithmetic", "",
        "commands commands.dt_a3 dt fields gaussian gw gwalpha series squares"),
    "dt-a3-arithmetic-json": ("dt-a3 --order 6 --output arithmetic --json", "",
        "commands commands.dt_a3 dt fields gaussian gw gwalpha jsonout series squares"),
    "dt-a3-complex-text": ("dt-a3 --order 6 --output complex", "",
        "commands commands.dt_a3 dt fields series"),
    "dt-a3-complex-json": ("dt-a3 --order 6 --output complex --json", "",
        "commands commands.dt_a3 dt fields jsonout series"),
    "dt-a3-real-text": ("dt-a3 --order 6 --output real", "",
        "commands commands.dt_a3 dt fields gaussian series"),
    "dt-a3-real-json": ("dt-a3 --order 6 --output real --json", "",
        "commands commands.dt_a3 dt fields gaussian jsonout series"),
    "ekl": ("ekl --map {map}", "fractions json",
        "commands commands.ekl ekl elimination fields groebner gw multipoly squares"),
    "ekl-six": ("ekl --map {map_six}", "fractions json",
        "commands commands.ekl ekl elimination factor fields groebner gw multipoly squares"),
    "ekl-R-json": ("ekl --map {map} --field R --json", "fractions json",
        "commands commands.ekl ekl elimination fields groebner gw jsonout multipoly squares"),
    "nearby": ("nearby --data {snc}", "json",
        "commands commands.nearby fields gaussian gw gwalpha motivic nearby squares"),
    "nearby-json": ("nearby --data {snc} --json", "json",
        "commands commands.nearby fields gaussian gw gwalpha jsonout motivic nearby squares"),
    "gv": ("gv --m 7", "", "castelnuovo commands commands.gv fields gaussian gw gwalpha squares"),
    "gv-m1-compare": ("gv --m 1 --compare", "",
        "castelnuovo commands commands.gv fields gaussian gw gwalpha squares"),
    "gv-compare": ("gv --m 7 --compare", "",
        "castelnuovo commands commands.gv factor fields forms gaussian gw gwalpha squares"),
    "gv-compare-json": ("gv --m 7 --compare --json", "",
        "castelnuovo commands commands.gv factor fields forms gaussian gw gwalpha jsonout squares"),
    "oracle": ("oracle pp --n 4", "", "commands commands.oracle fields partitions"),
    "oracle-json": ("oracle pp --n 4 --json", "",
        "commands commands.oracle fields jsonout partitions"),
    "selftest": ("selftest", "fractions",
        "castelnuovo commands commands.selftest degrees dt ekl elimination factor fields forms "
        "gaussian groebner gw gwalpha motivic multipoly nearby partitions potential series "
        "squares"),
    "selftest-json": ("selftest --json", "fractions",
        "castelnuovo commands commands.selftest degrees dt ekl elimination factor fields forms "
        "gaussian groebner gw gwalpha jsonout motivic multipoly nearby partitions potential "
        "series squares"),
    "argparse-abbreviation": ("dt-a3 --ord 6", "argparse",
        "commands commands.dt_a3 dt fields series"),
    "argparse-bad-choice": ("dt-a3 --order 6 --output nope", "argparse", ""),
}
USAGE_ERRORS = {"argparse-bad-choice"}  # these exit 2, and every other row 0
# every command line loads these: the child imports cli, which imports errors
CLI = {"arithdt", "arithdt.cli", "arithdt.errors"}
WATCHED = {"fractions": {"fractions", "decimal", "numbers"}, "json": {"json"},
           "argparse": {"argparse", "gettext", "locale"}, "dataclasses": {"dataclasses", "inspect"}}

# the inputs a row names as {map}, {map_six} and {snc}; --out writes {out}
_MAP = '{"vars": ["x", "y"], "polys": [[[[2, 0], "1"]], [[[0, 3], "1"]]]}'
# (2x, 3y): its class is <6>, whose rep is factored
_MAP_SIX = '{"vars": ["x", "y"], "polys": [[[[1, 0], "2"]], [[[0, 1], "3"]]]}'
_SNC = ('{"dim": 2, "strata": [{"I": [1], "mult": {"1": 1}, "class": {"u_coeffs": [[2, 1], '
        '[0, -1]]}}, {"I": [1, 2], "mult": {"1": 1, "2": 1}, "class": {"u_coeffs": [[0, 1]]}}]}')

# runs one CLI job in a fresh interpreter, prints every module then loaded, and each function
# and class that the arithdt ones define as module:name, and exits as the job did
_COMPILED = """
import sys
from arithdt.cli import dispatch
try:
    status = dispatch(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
modules = {name: module for name, module in list(sys.modules.items()) if name.split(".")[0] == "arithdt"}
print(" ".join([*sys.modules, *(f"{module_name}:{name}" for module_name, module in modules.items()
                                for name, value in vars(module).items()
                                if getattr(value, "__module__", None) == module_name)]))
sys.exit(status)
"""


def _child(*argv, code=_COMPILED):
    """Runs ``code`` with ``argv`` in a child: exit status, modules, names and stderr."""
    src = str(Path(arithdt.__file__).resolve().parent.parent)
    # no bytecode is written into the tree under test, which would change its start-up time
    env = {"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=60)
    tokens = (proc.stdout.splitlines() or [""])[-1].split()
    names = {token.partition(":")[2] for token in tokens if ":" in token}
    return proc.returncode, {token for token in tokens if ":" not in token}, names, proc.stderr


def _run_jobs(folder):
    """Each row's exit status, the modules its job loads that a bare interpreter does not,
    the names of the functions and classes its arithdt modules define (a pin on these holds
    wherever the code is moved), and its stderr: one child per argv, two at a time."""
    paths = {name: str(Path(folder, f"{name}.json")) for name in ("map", "map_six", "snc", "out")}
    for name, text in (("map", _MAP), ("map_six", _MAP_SIX), ("snc", _SNC)):
        Path(paths[name]).write_text(text)
    argvs = {argv: [t.format(**paths) for t in shlex.split(argv)] for argv, *_ in JOBS.values()}
    with ThreadPoolExecutor(2) as pool:
        bare = pool.submit(_child, code="import sys; print(' '.join(sys.modules))")
        runs = dict(zip(argvs, pool.map(lambda argv: _child(*argv), argvs.values())))
    bare = bare.result()[1]
    runs = {argv: (status, modules - bare, *rest) for argv, (status, modules, *rest) in runs.items()}
    return {name: runs[argv] for name, (argv, *_) in JOBS.items()}


def _row(modules):
    """The watched groups and the arithdt modules in ``modules``, as a row writes them."""
    top = {m.split(".")[0] for m in modules}
    groups = [group for group, names in WATCHED.items() if top & names]
    own = sorted(m.removeprefix("arithdt.") for m in modules - CLI if m.startswith("arithdt."))
    return " ".join(groups), " ".join(own)


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    return _run_jobs(tmp_path_factory.mktemp("jobs"))


def test_every_subcommand_has_a_row():
    from arithdt.cli import COMMANDS

    assert {argv.split()[0] for argv, *_ in JOBS.values()} >= set(COMMANDS)


@pytest.mark.parametrize("name", JOBS)
def test_job_loads(name, jobs):
    status, modules, _, stderr = jobs[name]
    assert status == (2 if name in USAGE_ERRORS else 0), stderr
    assert _row(modules) == JOBS[name][1:]


# The pins below name one property each, with its reason, and read the rows' cached runs.
def _loaded(jobs, name):
    """The arithdt modules the job of row ``name`` loads."""
    return {m for m in jobs[name][1] if m.split(".")[0] == "arithdt"}


def _rows(pairs):
    """pytest params: (test id, row name, *expected)."""
    return [pytest.param(*rest, id=test_id) for test_id, *rest in pairs]


DT_ROWS = [f"dt-a3-{output}-{mode}" for output in ("motivic", "arithmetic", "complex", "real")
           for mode in ("text", "json")]
# what every job adds to CLI: the base fields, and the package of the subcommand modules
JOB = CLI | {"arithdt.fields", "arithdt.commands"}
GW_ONLY = JOB | {"arithdt.commands.gw", "arithdt.gw", "arithdt.squares"}
DT_ONLY = JOB | {"arithdt.commands.dt_a3", "arithdt.dt", "arithdt.series"}
FORM_RINGS = {"arithdt.gw", "arithdt.squares", "arithdt.gwalpha", "arithdt.gaussian"}
WRITER = {"text": set(), "json": {"arithdt.jsonout"}}


@pytest.mark.parametrize("name,loaded", _rows([("version", "version", CLI),
                                                ("gw", "gw-rank", GW_ONLY)]))
def test_gw_jobs_load_four_modules(name, loaded, jobs):
    assert _loaded(jobs, name) == loaded
    # text output reads and writes no JSON: neither the writer nor the json package is compiled
    assert "json" not in jobs[name][1]
    # ``--version`` is answered without argparse too
    assert jobs[name][1] & WATCHED["argparse"] == set()


@pytest.mark.parametrize("name", ["version", "gw-mul", *DT_ROWS])
def test_jobs_without_a_rational_load_no_fractions(name, jobs):
    # a job that makes no rational loads no fractions, with the decimal and numbers it imports
    assert jobs[name][1] & WATCHED["fractions"] == set()


def test_jobs_with_a_rational_load_fractions(jobs):
    # the lazy imports are live: a rational rep, and an EKL Gram matrix
    assert "fractions" in jobs["gw-rational"][1] & jobs["ekl"][1]


def test_gw_json_job_loads_the_writer(jobs):
    assert _loaded(jobs, "gw-rank-json") == GW_ONLY | {"arithdt.jsonout"}


def test_dt_job_loads_no_algebra_modules(jobs):
    loaded = _loaded(jobs, "dt-a3-complex-text")  # complex is the default --output
    assert "arithdt.dt" in loaded
    assert loaded.isdisjoint({"arithdt.groebner", "arithdt.ekl", "arithdt.multipoly"})


@pytest.mark.parametrize("name,rings", _rows([("complex-rings0", "dt-a3-complex-text", set()),
                                               ("real-rings1", "dt-a3-real-text",
                                                {"arithdt.gaussian"})]))
def test_complex_and_real_series_jobs_load_no_quadratic_form(name, rings, jobs):
    # M(-t) is a series over Z and (-i)^n M^sym_n one over Z[i]: no motivic class or
    # quadratic form is made
    assert _loaded(jobs, name) == DT_ONLY | rings


@pytest.mark.parametrize("mode", WRITER)
def test_arithmetic_series_job_loads_no_motivic_class(mode, jobs):
    # the quadratic forms are read off M and M^sym, so arithdt.motivic is not compiled
    assert _loaded(jobs, f"dt-a3-arithmetic-{mode}") == DT_ONLY | FORM_RINGS | WRITER[mode]


@pytest.mark.parametrize("mode", WRITER)
def test_motivic_series_job_loads_no_quadratic_form(mode, jobs):
    # the series is read off one packed integer per t^n, and [SpecC]'s spec, a
    # GwAlphaElement, is built only on first use: no gw, gwalpha or gaussian
    loaded = _loaded(jobs, f"dt-a3-motivic-{mode}")
    assert loaded == DT_ONLY | {"arithdt.motivic"} | WRITER[mode]


@pytest.mark.parametrize("name,classifier", _rows([
    ("text", "gv", set()),
    ("compare-json", "gv-compare-json", {"arithdt.jsonout", "arithdt.forms", "arithdt.factor"}),
]))
def test_gv_job_loads_no_motivic_class(name, classifier, jobs):
    # the refined class is the alpha-sum of two terms, so arithdt.motivic is not compiled;
    # only the comparison with the closed form decides equality in GW(k), with forms and
    # the factoring of its Hasse invariants
    gv = {"arithdt.commands.gv", "arithdt.castelnuovo"}
    assert _loaded(jobs, name) == JOB | gv | FORM_RINGS | classifier


@pytest.mark.parametrize("name,factors", _rows([
    *((name, name, False) for name in DT_ROWS), ("nearby", "nearby", False),
    ("gw-unit", "gw-rank", False), ("gw-six", "gw-six", True), ("gw-F5", "gw-F5", True),
    ("ekl", "ekl", False), ("ekl-six", "ekl-six", True), ("gv-compare", "gv-compare", True),
]))
def test_factor_is_loaded_only_by_jobs_that_factor(name, factors, jobs):
    # the square class of +-1 needs no factoring; every other rep, the prime test of
    # F_p, and the Hasse invariants of a classified form do
    assert ("arithdt.factor" in _loaded(jobs, name)) == factors


@pytest.mark.parametrize("name", _rows([
    *(("-".join(name.split("-")[:3]) + ("---json" if name.endswith("json") else ""), name)
      for name in DT_ROWS),
    ("gw-rank", "gw-rank"), ("gw-add", "gw-add-signed"), ("gw-mul", "gw-mul"),
]))
def test_ring_jobs_load_no_form_classifier(name, jobs):
    # the quadratic forms of these jobs are added and multiplied, never classified
    assert "arithdt.forms" not in _loaded(jobs, name)


def test_jobs_that_classify_forms_load_the_classifier(jobs):
    # equality of classes compares invariants
    for name in ("gw-equal", "gv-compare"):
        assert "arithdt.forms" in _loaded(jobs, name), name


def test_ekl_job_does_not_load_motivic(jobs):
    for name in ("ekl", "ekl-six", "ekl-R-json"):
        loaded = _loaded(jobs, name)
        assert "arithdt.ekl" in loaded
        assert "arithdt.motivic" not in loaded
        # GW(k)(alpha) is named only in an annotation of degrees, which ekl does not load
        assert "arithdt.gwalpha" not in loaded


@pytest.mark.parametrize("name,reads", _rows([
    *((name[:-5], name, False) for name in DT_ROWS if name.endswith("json")),
    ("gw", "gw-mul-json", False), ("gv-compare", "gv-compare-json", False),
    ("oracle", "oracle-json", False), ("ekl", "ekl-R-json", True), ("nearby", "nearby-json", True),
]))
def test_json_package_is_loaded_only_by_jobs_that_read_json(name, reads, jobs):
    # the writer escapes strings with _json's encoder; ekl and nearby read their input
    modules = jobs[name][1]
    assert "arithdt.jsonout" in modules
    assert bool({m for m in modules if m.split(".")[0] == "json"}) == reads


@pytest.mark.parametrize("name", _rows([
    ("version", "version"), ("gw", "gw-mul-json"), ("dt-a3", "dt-a3-real-json"),
    ("ekl", "ekl-R-json"), ("nearby", "nearby-json"), ("gv", "gv-compare-json"),
    ("oracle", "oracle-json"),
]))
def test_no_job_imports_dataclasses_or_inspect(name, jobs):
    # start-up is most of a short job: dataclasses alone, with the inspect it imports,
    # cost about as much as all of arithdt's own modules
    assert jobs[name][1] & WATCHED["dataclasses"] == set()


@pytest.mark.parametrize("name", _rows([
    *((f"{test_id}-{mode}", row) for test_id, *pair in (
        ("gw", "gw-mul", "gw-mul-json"), ("gw-signed", "gw-add-signed", "gw-add-signed-json"),
        ("ekl", "ekl", "ekl-R-json"), ("nearby", "nearby", "nearby-json"),
        ("gv", "gv-compare", "gv-compare-json"), ("oracle", "oracle", "oracle-json"),
        ("selftest", "selftest", "selftest-json")) for mode, row in zip(WRITER, pair)),
    *((name, name) for name in DT_ROWS),
]))
def test_well_formed_jobs_load_no_argparse(name, jobs):
    modules = jobs[name][1]
    assert modules & WATCHED["argparse"] == set()
    # only a dt-a3 job, and the selftest that runs every module, builds a series
    assert ("arithdt.series" in modules) == (JOBS[name][0].split()[0] in ("dt-a3", "selftest"))


def test_other_command_lines_are_read_by_argparse(jobs):
    # an abbreviated option, and a usage error
    for name in ("argparse-abbreviation", "argparse-bad-choice"):
        assert "argparse" in jobs[name][1], name


DT_JOBS = [name for name in JOBS if name.startswith("dt-a3-")]
TRACE_POTENTIAL = {"MatrixTriple", "commutator", "gradient_vanishes", "trace_potential",
                   "trace_potential_gradient"}
SQUARE_CLASSES = {"SquareClass", "square_class_rep", "legendre_symbol", "least_nonresidue"}


@pytest.mark.parametrize("name", DT_JOBS)
def test_dt_jobs_compile_no_trace_potential(name, jobs):
    assert jobs[name][2] & TRACE_POTENTIAL == set()


@pytest.mark.parametrize("name", [name for name in DT_JOBS if "arithmetic" not in name])
def test_series_jobs_without_a_quadratic_form_compile_no_square_class(name, jobs):
    # only the arithmetic series is made of quadratic forms
    assert jobs[name][2] & SQUARE_CLASSES == set()


def test_ekl_job_compiles_the_kernel_and_no_classifier(jobs):
    # the Gram matrix is eliminated, and its class never compared or classified
    names = jobs["ekl"][2]
    assert "_diagonalize_rows" in names
    assert names.isdisjoint({"gw_equal", "hilbert_symbol", "hasse_invariant", "ConjugatePair",
                             "local_degree_simple", "milnor_number_a1", "milnor_chi_relation"})


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


def test_every_folder_of_modules_is_a_package():
    # setuptools' packages.find ships only the folders that hold an __init__.py
    package = Path(arithdt.__file__).resolve().parent
    folders = sorted({path.parent for path in package.rglob("*.py")})
    assert [folder for folder in folders if not (folder / "__init__.py").is_file()] == []


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


if __name__ == "__main__":
    # JOBS as the tree under test loads it, to paste over the table above
    with tempfile.TemporaryDirectory() as folder:
        runs = _run_jobs(folder)
    print("JOBS = {")
    for name, (argv, *_) in JOBS.items():
        groups, modules = _row(runs[name][1])
        line = f'    "{name}": ("{argv}", "{groups}", "{modules}"),'
        if len(line) > 100:  # the modules on lines of their own
            chunks = textwrap.wrap(modules, 88, break_on_hyphens=False, drop_whitespace=False)
            line = f'    "{name}": ("{argv}", "{groups}",'
            line += "".join(f'\n        "{chunk}"' for chunk in chunks) + "),"
        print(line)
    print("}")
