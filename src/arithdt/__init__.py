"""Exact computer algebra for quadratic-form-valued and motivic counts.

Modules:

* ``fields`` / ``factor``: base fields and square classes, and the exact
  integer factoring they rest on;
* ``gw`` / ``forms``: Grothendieck-Witt ring arithmetic and trace forms, and
  the classification of forms: symmetric diagonalization, local symbols and
  the equality of classes;
* ``gwalpha`` / ``gaussian``: GW(k)(alpha) with alpha^2 = <-1>, and the
  Gaussian integers;
* ``motivic``: the Tate subring of motivic weights and the three Euler
  characteristic specializations;
* ``series``: truncated power series over caller-supplied rings;
* ``multipoly`` / ``groebner`` / ``ekl``: exact polynomial systems, grevlex
  Groebner bases, quotient algebras and local degree classes;
* ``nearby``: nearby classes and virtual classes from SNC strata;
* ``dt``: partition functions for degree-zero counts on affine 3-space;
* ``castelnuovo``: refined genus-bound fiber integrals for the quintic;
* ``partitions``: brute-force plane-partition oracles;
* ``cli``: the ``arithdt`` command-line tool, with one module per
  subcommand in ``commands`` and its JSON writer in ``jsonout``.

Each public name is loaded from its submodule on first access (PEP 562), so
``import arithdt`` and a CLI run compile only the modules they use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> submodule that defines it; each submodule is public too, except
# forms, gwalpha and gaussian, split off gw (so that a job compiles only what it runs)
# after the names were fixed
_EXPORTS = {
    name: module
    for module, names in (
        ("castelnuovo", "CastelnuovoInput GvComparison castelnuovo_bound fiber_dimension "
                        "gv_arithmetic_direct gv_closed_form gv_compare gv_virtual_class_motivic"),
        ("dt", "MatrixTriple PartitionFunctionResult macmahon macmahon_symmetric "
               "partition_function trace_potential trace_potential_gradient z_arithmetic z_motivic"),
        ("ekl", "ConjugatePair EklResult MilnorReport ekl_class global_degree_univariate "
                "local_degree_simple milnor_chi_relation milnor_number_a1"),
        ("errors", ""),
        ("fields", "BaseField CC CoefficientRing QQ RR SquareClass finite_field"),
        ("groebner", "QuotientAlgebra buchberger grevlex_key"),
        ("gw", "GwElement diagonalize_symmetric gw_ring trace_form"),
        ("forms", "hasse_invariant hilbert_symbol"),
        ("gaussian", "GAUSSIAN_RING GaussianInteger"),
        ("gwalpha", "GeneratorSpec GwAlphaElement alpha_power gw_alpha_ring"),
        ("motivic", "L MOTIVIC_RING MotivicClass chi_a1 chi_complex chi_real grassmannian_class "
                    "projective_space_class quadratic_point_generator"),
        ("multipoly", "MultiPoly"),
        ("nearby", "SncData StratumRecord local_nearby_class nearby_class "
                   "virtual_class_critical_locus virtual_class_torus"),
        ("partitions", "count_plane_partitions count_symmetric_plane_partitions plane_partitions "
                       "verify_macmahon verify_symmetric"),
        ("series", "INT_RING TruncatedSeries"),
    )
    for name in (module, *names.split())
}
del _EXPORTS["forms"], _EXPORTS["gwalpha"], _EXPORTS["gaussian"]

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
