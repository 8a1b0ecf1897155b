"""Exact zeta functions of varieties over finite fields.

Point counting from first principles, rational reconstruction of Z_V(t),
verification of rationality, functional equation, root moduli and Betti
degrees, plus complex-multiplication traces, pseudo-lattice endomorphism
rings and dimension groups with exact Perron-Frobenius data.
"""

from . import errors
from .cmcurve import (FrobeniusData, GaussianInt, cornacchia_two_squares,
                      count_via_character, frobenius_eigenvalues,
                      frobenius_trace, grossencharacter_psi,
                      grossencharacter_trace_d1)
from .dimgroup import (DimensionGroup, HeckeLikeMatrix, UnitDecomposition,
                       build, equivalent, frobenius_shift_matches_eigenvalue,
                       hecke_companion, make_matrix, parse_matrix, shift,
                       shift_inverse, trace_value, unit_decomposition)
from .ffield import (DEFAULT_BUDGET, FFElement, FieldSpec, enumerate_field,
                     is_prime, make_field, primes_in_range)
from .pseudolattice import (DensityWitness, PseudoLattice, contains,
                            coordinates, curve_trace_cohomology,
                            density_witness, endo_matrix, endo_ring_basis,
                            endo_ring_rank, is_endomorphism, parse_lattice,
                            point_count_from_frobenius)
from .realalg import (RealAlgebraic, RealNumberField, minimal_polynomial,
                      same_number)
from .variety import (MultiPoly, PointCountSeries, VarietySpec, count_points,
                      count_series, ec_count, load_variety, parse_variety,
                      weierstrass_variety)
from .zeta import (PowerSeriesQ, RationalFunctionQ, RHReport,
                   WeilFactorization, betti_check, curve_numerator,
                   functional_equation_check, pade_reconstruct,
                   point_count_from_zeta, rational_function, rh_check,
                   weight_split, with_sign, zeta_series)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "DEFAULT_BUDGET", "FieldSpec", "FFElement", "make_field",
    "enumerate_field", "is_prime", "primes_in_range",
    "MultiPoly", "VarietySpec", "PointCountSeries", "parse_variety",
    "load_variety", "count_points", "count_series", "ec_count",
    "weierstrass_variety",
    "PowerSeriesQ", "RationalFunctionQ", "WeilFactorization", "RHReport",
    "zeta_series", "pade_reconstruct", "rational_function", "curve_numerator",
    "functional_equation_check", "weight_split", "with_sign", "rh_check",
    "betti_check", "point_count_from_zeta",
    "GaussianInt", "FrobeniusData", "frobenius_trace", "frobenius_eigenvalues",
    "cornacchia_two_squares", "grossencharacter_psi",
    "grossencharacter_trace_d1", "count_via_character",
    "RealNumberField", "RealAlgebraic", "minimal_polynomial", "same_number",
    "PseudoLattice", "DensityWitness", "contains", "coordinates",
    "is_endomorphism", "endo_matrix", "endo_ring_basis", "endo_ring_rank",
    "curve_trace_cohomology", "point_count_from_frobenius", "density_witness",
    "parse_lattice",
    "HeckeLikeMatrix", "DimensionGroup", "UnitDecomposition", "make_matrix",
    "parse_matrix", "build", "trace_value", "equivalent", "shift",
    "shift_inverse", "unit_decomposition", "hecke_companion",
    "frobenius_shift_matches_eigenvalue",
    "__version__",
]
