"""Exact zeta functions of varieties over finite fields.

Point counting from first principles, rational reconstruction of Z_V(t),
verification of rationality, functional equation, root moduli and Betti
degrees, plus complex-multiplication traces, pseudo-lattice endomorphism
rings and dimension groups with exact Perron-Frobenius data.

Importing the package loads none of its submodules: each public name
below loads its submodule on first access (PEP 562), so a command line
job pays only for the code it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; a submodule maps to itself
_SOURCE = {name: module for module, names in (
    ("errors", ("errors", "DEFAULT_BUDGET")),
    ("primes", ("is_prime", "primes_in_range")),
    ("ffield", ("make_field",)),
    ("variety", ("MultiPoly", "VarietySpec", "PointCountSeries",
                 "parse_variety", "load_variety", "count_points",
                 "count_series", "weierstrass_variety")),
    ("zeta", ("PowerSeriesQ", "RationalFunctionQ", "WeilFactorization",
              "RHReport", "zeta_series", "pade_reconstruct",
              "rational_function", "curve_numerator",
              "functional_equation_check", "weight_split", "with_sign",
              "rh_check", "betti_check", "point_count_from_zeta")),
    ("cmcurve", ("GaussianInt", "FrobeniusData", "ec_count", "frobenius_trace",
                 "frobenius_eigenvalues", "cornacchia_two_squares",
                 "grossencharacter_psi", "grossencharacter_trace_d1",
                 "count_via_character")),
    ("realalg", ("RealNumberField", "RealAlgebraic", "minimal_polynomial")),
    ("pseudolattice", ("PseudoLattice", "DensityWitness", "contains",
                       "coordinates", "is_endomorphism", "endo_matrix",
                       "endo_ring_basis", "endo_ring_rank",
                       "curve_trace_cohomology", "point_count_from_frobenius",
                       "density_witness", "parse_lattice")),
    ("dimgroup", ("HeckeLikeMatrix", "DimensionGroup", "UnitDecomposition",
                  "make_matrix", "parse_matrix", "build", "trace_value",
                  "equivalent", "shift", "shift_inverse", "unit_decomposition",
                  "hecke_companion", "frobenius_shift_matches_eigenvalue")),
) for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__})
