"""Tropicalizations of wall factors and the dual-fan decomposition check."""

from .errors import UnsupportedDimensionError
from .lattice import RaySet, UnimodularSimplex, normal_fan_rays
from .minkowski import MinkowskiDecomposition


def tropical_rays(summand: UnimodularSimplex) -> RaySet:
    """Rays of the corner locus of min(0, <u_1,x>, ..., <u_k,x>).

    The locus is the inner normal fan of the simplex, so its rays are the
    inner normals (-e_y, e_x) of the counterclockwise edges e; a segment
    summand contributes the full line perpendicular to its generator.
    """
    if summand.dim != 2:
        raise UnsupportedDimensionError("tropicalization is computed in rank two only")
    # a unimodular simplex's edges are primitive, and so are their rotations
    return RaySet._of(frozenset((-ey, ex) for ex, ey in summand.edge_profile()))


def wall_chambers(summand: UnimodularSimplex) -> int:
    """Number of maximal cones of the summand's normal fan, i.e. its vertex
    count k + 1: the vertices of a unimodular simplex are affinely
    independent, so each is a vertex of its hull."""
    return summand.k + 1


def dual_fan_check(decomposition: MinkowskiDecomposition) -> bool:
    """Check that the wall tropicalizations jointly recover the dual fan of
    the polytope.

    Rays on both sides are taken in the min-convention orientation used by
    tropical_rays (inner normals), which makes the identity hold for every
    decomposition, including polytopes without centrally symmetric ray sets.
    """
    if decomposition.polytope.dim != 2:
        raise UnsupportedDimensionError("the dual-fan check is a rank-two computation")
    union = frozenset().union(*(tropical_rays(s).rays for s, _ in decomposition._runs))
    return union == normal_fan_rays(decomposition.polytope).negated().rays
