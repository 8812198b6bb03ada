"""Exact arithmetic for refined tropical curve counts in the plane.

The package enumerates rational parametrized tropical curves of a fixed
toric degree through generic boundary-moment constraints, sums their
Block-Gottsche multiplicities into the refined count N, converts N into the
real refined invariant R, and cross-checks R curve by curve through maximal
splittings, first-order real multiplicities and quantum indices. Everything
runs over integers and fractions; no floats enter any computed value.

Importing the package loads none of its modules. Each exported name, and
each module that exports names, is imported the first time it is looked
up, so a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "DegenerateDegree", "DegenerateType", "ExhaustedRetries",
        "FlatVertex", "InadmissibleSet", "InsufficientMultiplicity",
        "InvarianceViolation", "LengthMismatch", "MenelausViolation",
        "MultipleDivisors", "NonGenericMoments", "NonPositive",
        "NotDivisible", "OddQuadMultiplicity", "OutOfRange", "TooFewEnds",
        "TropicalError"),
    "invariants": (
        "InvariantReport", "SplitMix64", "TrialRecord", "broccoli_from_r",
        "invariance_audit", "r_from_n", "random_generic_moments",
        "refined_count", "sample_trial"),
    "lattice": (
        "Degree", "LatticePolygon", "MomentVector", "Vec", "build_delta_s",
        "delta_d", "frac_str", "lattice_length", "menelaus_sum",
        "normals_of", "polygon_of", "primitive", "rot90", "split_even_ends",
        "wedge"),
    "laurent": ("HalfLaurent", "q_analog", "w_pow_minus_inverse"),
    "realsplit": (
        "RealSplit", "SplitEdge", "WeightedPlaneParam", "admissible_sets",
        "build_split", "c_k_values", "coamoeba_area", "even_components",
        "gamma_even", "m_prime", "maximal_split", "oriented_solution_count",
        "quad_indices", "quad_refined_sum", "quotient_curve", "stem_of",
        "trivalent_quantum_index"),
    "solver": ("TropicalSolution", "evaluation_matrix", "solve"),
    "svgplot": ("dual_subdivision", "render_svg"),
    "trees": ("CombinatorialType", "double_factorial_count",
              "enumerate_types"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """An exported name or an exporting module, imported on first use and
    then kept in the package namespace."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
