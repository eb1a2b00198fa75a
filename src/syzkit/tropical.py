"""Tropicalizations of wall factors and the dual-fan decomposition check."""

from itertools import combinations

from .errors import UnsupportedDimensionError
from .lattice import (
    RaySet,
    UnimodularSimplex,
    dot,
    normal_fan_rays,
    primitive,
    vec_neg,
    vec_sub,
)
from .minkowski import MinkowskiDecomposition


def tropical_rays(summand: UnimodularSimplex) -> RaySet:
    """Rays of the corner locus of min(0, <u_1,x>, ..., <u_k,x>).

    A direction belongs to the locus when at least two of the affine forms
    attain the minimum along it; a segment summand contributes the full line
    perpendicular to its generator.
    """
    if summand.dim != 2:
        raise UnsupportedDimensionError("tropicalization is computed in rank two only")
    forms = [(0, 0), *summand.generators]
    found = set()
    for i, j in combinations(range(len(forms)), 2):
        w = vec_sub(forms[i], forms[j])
        base = primitive((w[1], -w[0]))
        for ray in (base, vec_neg(base)):
            level = dot(forms[i], ray)
            if all(dot(f, ray) >= level for f in forms):
                found.add(ray)
    return RaySet(frozenset(found))


def wall_chambers(summand: UnimodularSimplex) -> int:
    """Number of maximal cones of the summand's normal fan, i.e. its vertex
    count k + 1: the vertices of a unimodular simplex are affinely
    independent, so each is a vertex of its hull."""
    if summand.dim not in (1, 2):
        raise UnsupportedDimensionError("chamber counting is limited to rank 1 and 2")
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
    union = frozenset()
    for s in decomposition.summands:
        union = union | tropical_rays(s).rays
    return union == normal_fan_rays(decomposition.polytope).negated().rays
