"""syzkit: Minkowski decompositions of lattice polytopes, their Laurent
polynomial mirrors, and conifold-transition matching in exact arithmetic.

Pipeline: decompose a lattice polytope into unimodular simplices, read each
summand as a wall factor 1 + sum z^u, multiply the factors into the mirror
g(z) whose coefficients are the open disc counts, and match that mirror
against the parameterized family attached to a toric resolution via a
monomial change of coordinates plus an exact parameter specialization.

Public names and submodules are imported on first use (PEP 562), so a
process loads only the modules it reaches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = frozenset((
    "algebra", "cli", "errors", "gw", "intlinalg", "lattice", "minkowski", "mirror",
    "svg", "transition", "tropical",
))

# The module that defines each public name.
_HOMES = {name: module for module, names in {
    "algebra": "Character LaurentPolynomial apply_character fraction_str solve_character_match",
    "errors": "DimensionMismatchError EmptyInputError InvalidBasisError OutputTooLargeError "
              "SearchBudgetExceededError ShapeMismatchError SupportMismatchError SyzkitError "
              "UnsupportedDimensionError VerificationFailedError",
    "gw": "SECTOR_D0 SECTOR_DINF SECTOR_NONE DiscClass enumerate_gw_classes gw_invariant",
    "lattice": "IntVec LatticePolytope RaySet UnimodularSimplex edge_profile hull "
               "is_unimodular_simplex lattice_points normal_fan_rays polytope_from_json_dict",
    "minkowski": "DEFAULT_SEARCH_BUDGET CayleyCone MinkowskiDecomposition canonical_summand "
                 "cayley_cone decomposition_from_json_dict enumerate_decompositions "
                 "summand_from_vertices verify_decomposition",
    "mirror": "GWTable SYZMirror chamber_uv disc_potential syz_mirror wall_factor",
    "transition": "BasisSimplex TransitionReport match_transition",
    "tropical": "dual_fan_check tropical_rays wall_chambers",
}.items() for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Cached as a global, so the next lookup does not come back here.
    value = globals()[name] = getattr(_import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | _HOMES.keys())
