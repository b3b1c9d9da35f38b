"""Exact computer algebra for quadratic-form-valued and motivic counts.

Modules:

* ``fields`` / ``factor`` / ``squares``: base fields, the exact integer
  factoring behind square-free parts, and square classes with their
  canonical representatives;
* ``gw`` / ``elimination`` / ``forms``: Grothendieck-Witt ring arithmetic
  and trace forms, the elimination kernel of symmetric diagonalization, and
  the classification of forms: local symbols and the equality of classes;
* ``gwalpha`` / ``gaussian``: GW(k)(alpha) with alpha^2 = <-1>, and the
  Gaussian integers;
* ``motivic``: the Tate subring of motivic weights and the three Euler
  characteristic specializations;
* ``series``: truncated power series over caller-supplied rings;
* ``multipoly`` / ``groebner`` / ``ekl`` / ``degrees``: exact polynomial
  systems, grevlex Groebner bases, quotient algebras and local degree
  classes; simple-zero, univariate and Milnor degrees in ``degrees``;
* ``nearby``: nearby classes and virtual classes from SNC strata;
* ``dt`` / ``potential``: partition functions for degree-zero counts on
  affine 3-space, and the trace potential on matrix triples;
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
# those split off after the names were fixed (so that a job compiles only what it
# runs): forms, gwalpha, gaussian and squares off gw and fields, potential off dt,
# and degrees off ekl
_EXPORTS = {
    name: module
    for module, names in (
        ("castelnuovo", "CastelnuovoInput GvComparison castelnuovo_bound fiber_dimension "
                        "gv_arithmetic_direct gv_closed_form gv_compare gv_virtual_class_motivic"),
        ("dt", "PartitionFunctionResult macmahon macmahon_symmetric partition_function "
               "z_arithmetic z_motivic"),
        ("potential", "MatrixTriple trace_potential trace_potential_gradient"),
        ("ekl", "EklResult ekl_class"),
        ("degrees", "ConjugatePair MilnorReport global_degree_univariate local_degree_simple "
                    "milnor_chi_relation milnor_number_a1"),
        ("errors", ""),
        ("fields", "BaseField CC CoefficientRing QQ RR finite_field"),
        ("squares", "SquareClass"),
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
del (_EXPORTS["forms"], _EXPORTS["gwalpha"], _EXPORTS["gaussian"], _EXPORTS["squares"],
     _EXPORTS["potential"], _EXPORTS["degrees"])

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
