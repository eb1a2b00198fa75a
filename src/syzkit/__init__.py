"""syzkit: Minkowski decompositions of lattice polytopes, their Laurent
polynomial mirrors, and conifold-transition matching in exact arithmetic.

Pipeline: decompose a lattice polytope into unimodular simplices, read each
summand as a wall factor 1 + sum z^u, multiply the factors into the mirror
g(z) whose coefficients are the open disc counts, and match that mirror
against the parameterized family attached to a toric resolution via a
monomial change of coordinates plus an exact parameter specialization.
"""

from .algebra import (
    Character,
    LaurentPolynomial,
    apply_character,
    fraction_str,
    newton_polytope,
    solve_character_match,
)
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidBasisError,
    OutputTooLargeError,
    SearchBudgetExceededError,
    ShapeMismatchError,
    SupportMismatchError,
    SyzkitError,
    UnsupportedDimensionError,
    VerificationFailedError,
    ZeroPolynomialError,
)
from .lattice import (
    IntVec,
    LatticePolytope,
    RaySet,
    UnimodularSimplex,
    edge_profile,
    hull,
    is_unimodular_simplex,
    lattice_points,
    minkowski_sum,
    minkowski_sum_all,
    normal_fan_rays,
    polytope_from_json_dict,
)
from .minkowski import (
    DEFAULT_SEARCH_BUDGET,
    CayleyCone,
    MinkowskiDecomposition,
    canonical_summand,
    cayley_cone,
    decomposition_from_json_dict,
    enumerate_decompositions,
    summand_from_vertices,
    verify_decomposition,
)
from .mirror import (
    SECTOR_D0,
    SECTOR_DINF,
    SECTOR_NONE,
    DiscClass,
    GWTable,
    SYZMirror,
    chamber_uv,
    disc_potential,
    enumerate_gw_classes,
    gw_invariant,
    syz_mirror,
    wall_factor,
)
from .transition import (
    BasisSimplex,
    TransitionReport,
    match_transition,
)
from .tropical import dual_fan_check, tropical_rays, wall_chambers

__version__ = "0.1.0"

__all__ = [
    "BasisSimplex",
    "CayleyCone",
    "Character",
    "DEFAULT_SEARCH_BUDGET",
    "DimensionMismatchError",
    "DiscClass",
    "EmptyInputError",
    "GWTable",
    "IntVec",
    "InvalidBasisError",
    "LatticePolytope",
    "LaurentPolynomial",
    "MinkowskiDecomposition",
    "OutputTooLargeError",
    "RaySet",
    "SECTOR_D0",
    "SECTOR_DINF",
    "SECTOR_NONE",
    "SYZMirror",
    "SearchBudgetExceededError",
    "ShapeMismatchError",
    "SupportMismatchError",
    "SyzkitError",
    "TransitionReport",
    "UnimodularSimplex",
    "UnsupportedDimensionError",
    "VerificationFailedError",
    "ZeroPolynomialError",
    "apply_character",
    "canonical_summand",
    "cayley_cone",
    "chamber_uv",
    "decomposition_from_json_dict",
    "disc_potential",
    "dual_fan_check",
    "edge_profile",
    "enumerate_decompositions",
    "enumerate_gw_classes",
    "fraction_str",
    "gw_invariant",
    "hull",
    "is_unimodular_simplex",
    "lattice_points",
    "match_transition",
    "minkowski_sum",
    "minkowski_sum_all",
    "newton_polytope",
    "normal_fan_rays",
    "polytope_from_json_dict",
    "solve_character_match",
    "summand_from_vertices",
    "syz_mirror",
    "tropical_rays",
    "verify_decomposition",
    "wall_chambers",
    "wall_factor",
]
