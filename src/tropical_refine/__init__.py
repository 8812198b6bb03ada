"""Exact arithmetic for refined tropical curve counts in the plane.

The package enumerates rational parametrized tropical curves of a fixed
toric degree through generic boundary-moment constraints, sums their
Block-Gottsche multiplicities into the refined count N, converts N into the
real refined invariant R, and cross-checks R curve by curve through maximal
splittings, first-order real multiplicities and quantum indices. Everything
runs over integers and fractions; no floats enter any computed value.
"""

from .errors import (DegenerateDegree, DegenerateType, ExhaustedRetries,
                     FlatVertex, InadmissibleSet, InsufficientMultiplicity,
                     InvarianceViolation, LengthMismatch, MenelausViolation,
                     MultipleDivisors, NonGenericMoments, NonPositive,
                     NotDivisible, OddQuadMultiplicity, OutOfRange,
                     TooFewEnds, TropicalError)
from .invariants import (InvariantReport, SplitMix64, TrialRecord,
                         broccoli_from_r, invariance_audit, r_from_n,
                         random_generic_moments, refined_count,
                         sample_trial)
from .lattice import (Degree, LatticePolygon, MomentVector, Vec,
                      build_delta_s, delta_d, frac_str, lattice_length,
                      menelaus_sum, normals_of, polygon_of, primitive, rot90,
                      split_even_ends, wedge)
from .laurent import HalfLaurent, q_analog, w_pow_minus_inverse
from .realsplit import (RealSplit, SplitEdge, WeightedPlaneParam,
                        admissible_sets, build_split, c_k_values,
                        coamoeba_area, even_components, gamma_even, m_prime,
                        maximal_split, oriented_solution_count, quad_indices,
                        quad_refined_sum, quotient_curve, stem_of,
                        trivalent_quantum_index)
from .solver import TropicalSolution, evaluation_matrix, solve
from .svgplot import dual_subdivision, render_svg
from .trees import CombinatorialType, double_factorial_count, enumerate_types

__version__ = "0.1.0"

__all__ = [
    "CombinatorialType",
    "Degree",
    "DegenerateDegree",
    "DegenerateType",
    "ExhaustedRetries",
    "FlatVertex",
    "HalfLaurent",
    "InadmissibleSet",
    "InsufficientMultiplicity",
    "InvarianceViolation",
    "InvariantReport",
    "LatticePolygon",
    "LengthMismatch",
    "MenelausViolation",
    "MomentVector",
    "MultipleDivisors",
    "NonGenericMoments",
    "NonPositive",
    "NotDivisible",
    "OddQuadMultiplicity",
    "OutOfRange",
    "RealSplit",
    "SplitEdge",
    "SplitMix64",
    "TooFewEnds",
    "TrialRecord",
    "TropicalError",
    "TropicalSolution",
    "Vec",
    "WeightedPlaneParam",
    "admissible_sets",
    "broccoli_from_r",
    "build_delta_s",
    "build_split",
    "c_k_values",
    "coamoeba_area",
    "delta_d",
    "double_factorial_count",
    "dual_subdivision",
    "enumerate_types",
    "evaluation_matrix",
    "even_components",
    "frac_str",
    "gamma_even",
    "invariance_audit",
    "lattice_length",
    "m_prime",
    "maximal_split",
    "menelaus_sum",
    "normals_of",
    "oriented_solution_count",
    "polygon_of",
    "primitive",
    "q_analog",
    "quad_indices",
    "quad_refined_sum",
    "quotient_curve",
    "r_from_n",
    "random_generic_moments",
    "refined_count",
    "render_svg",
    "rot90",
    "sample_trial",
    "solve",
    "split_even_ends",
    "stem_of",
    "trivalent_quantum_index",
    "w_pow_minus_inverse",
    "wedge",
]
