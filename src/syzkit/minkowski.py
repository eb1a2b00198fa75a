"""Minkowski decompositions of lattice polytopes into unimodular simplices,
and the Cayley cone attached to a decomposition.

The enumeration backtracks over the polytope's edge budget: every edge vector
of a summand must be an edge direction of the polytope, and the lattice
lengths add up exactly.  A multiset of summands exhausting the budget always
sums back to the polytope, which a final exact Minkowski sum confirms.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import DimensionMismatchError, SearchBudgetExceededError
from .lattice import (
    IntVec,
    LatticePolytope,
    UnimodularSimplex,
    cross,
    edge_profile,
    hull,
    minkowski_sum_all,
    polytope_from_json_dict,
    vec_add,
    vec_neg,
    vec_sub,
)

DEFAULT_SEARCH_BUDGET = 10_000_000


def _point_key(v: IntVec) -> tuple:
    # reversed-coordinate comparison; fixes the wall labelling so that the
    # e1-type summand precedes the e2-type one
    return tuple(reversed(v))


def summand_sort_key(summand: UnimodularSimplex) -> tuple:
    return (summand.k, tuple(_point_key(g) for g in summand.generators))


def summand_from_vertices(dim: int, vertices) -> UnimodularSimplex:
    """Summand rooted so its lexicographic minimum vertex sits at the origin."""
    verts = sorted(set(tuple(int(x) for x in v) for v in vertices))
    root = verts[0]
    return UnimodularSimplex(dim, tuple(vec_sub(v, root) for v in verts[1:]))


def canonical_summand(summand: UnimodularSimplex) -> UnimodularSimplex:
    return summand_from_vertices(summand.dim, summand.vertex_set())


@dataclass(frozen=True)
class MinkowskiDecomposition:
    """A polytope written as a Minkowski sum of unimodular simplices.

    The polytope is pinned with its lexicographic minimum vertex at the
    origin; ``translation`` records the vertex of the original polytope that
    was moved there.  Summands are rooted at the origin and stored in
    canonical order, which also fixes the wall indexing downstream.
    """

    polytope: LatticePolytope
    translation: IntVec
    summands: tuple[UnimodularSimplex, ...]

    def __post_init__(self):
        object.__setattr__(self, "translation", tuple(int(x) for x in self.translation))
        summands = tuple(
            sorted((canonical_summand(s) for s in self.summands), key=summand_sort_key)
        )
        object.__setattr__(self, "summands", summands)
        d = self.polytope.dim
        if self.polytope.lexmin != (0,) * d:
            raise ValueError(
                "decomposition polytope must have its lexicographic minimum at the origin"
            )
        if len(self.translation) != d:
            raise DimensionMismatchError("translation point has the wrong rank")
        for s in summands:
            if s.dim != d:
                raise DimensionMismatchError("summand rank differs from the polytope rank")
        total = minkowski_sum_all((hull(s.vertex_set()) for s in summands), d)
        if total != self.polytope:
            raise ValueError("summands do not sum to the polytope")
        object.__setattr__(self, "_ks", tuple(s.k for s in summands))

    @property
    def p(self) -> int:
        return len(self.summands) - 1

    @property
    def ks(self) -> tuple[int, ...]:
        return self._ks

    def sort_key(self) -> tuple:
        return tuple(summand_sort_key(s) for s in self.summands)

    def to_json_dict(self) -> dict:
        return {
            "polytope": self.polytope.to_json_dict(),
            "translation": list(self.translation),
            "summands": [s.to_json_dict() for s in self.summands],
        }


def decomposition_from_json_dict(data: dict) -> MinkowskiDecomposition:
    poly = polytope_from_json_dict(data["polytope"])
    translation = tuple(int(x) for x in data.get("translation", (0,) * poly.dim))
    summands = tuple(
        UnimodularSimplex(
            poly.dim, tuple(tuple(int(x) for x in g) for g in s["generators"])
        )
        for s in data["summands"]
    )
    shift = poly.lexmin
    return MinkowskiDecomposition(
        poly.translate(vec_neg(shift)), vec_add(translation, shift), summands
    )


def verify_decomposition(polytope: LatticePolytope, summands) -> bool:
    """Exact check that the summands are unimodular simplices whose Minkowski
    sum is the translate of the polytope rooted at its lexicographic minimum."""
    try:
        canon = [canonical_summand(s) for s in summands]
    except ValueError:
        return False
    for s in canon:
        if s.dim != polytope.dim:
            raise DimensionMismatchError("summand rank differs from the polytope rank")
    base = polytope.translate(vec_neg(polytope.lexmin))
    return minkowski_sum_all((hull(s.vertex_set()) for s in canon), polytope.dim) == base


def _candidate_summands(dim: int, profile: dict[IntVec, int]) -> list[UnimodularSimplex]:
    """Unimodular simplices whose counterclockwise edges fit the polytope's
    edge directions: segments need both antipodal directions, triangles need
    three directions summing to zero with unit determinant."""
    dirs = set(profile)
    zero = (0,) * dim
    found = set()
    for u in dirs:
        if vec_neg(u) in dirs:
            found.add(summand_from_vertices(dim, (zero, u)))
    if dim == 2:
        for a, b in combinations(sorted(dirs), 2):
            if abs(cross(a, b)) != 1:
                continue
            if vec_neg(vec_add(a, b)) not in dirs:
                continue
            found.add(summand_from_vertices(dim, (zero, a, vec_add(a, b))))
    return sorted(found, key=summand_sort_key)


def enumerate_decompositions(
    polytope: LatticePolytope, budget: int | None = None
) -> list[MinkowskiDecomposition]:
    """All decompositions of the polytope into origin-rooted unimodular
    simplices, up to summand reordering, in deterministic canonical order.

    ``budget`` caps the number of search nodes (default 10^7); exceeding it
    raises SearchBudgetExceededError.
    """
    max_nodes = DEFAULT_SEARCH_BUDGET if budget is None else int(budget)
    d = polytope.dim
    shift = polytope.lexmin
    base = polytope.translate(vec_neg(shift))
    profile = edge_profile(base)
    if not profile:
        return [MinkowskiDecomposition(base, shift, ())]
    candidates = _candidate_summands(d, profile)
    costs = [edge_profile(hull(c.vertex_set())) for c in candidates]
    remaining = dict(profile)
    found: list[MinkowskiDecomposition] = []
    chosen: list[UnimodularSimplex] = []
    nodes = 0

    def search(start: int, left: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise SearchBudgetExceededError(
                f"decomposition search exceeded {max_nodes} nodes"
            )
        if left == 0:
            found.append(MinkowskiDecomposition(base, shift, tuple(chosen)))
            return
        for idx in range(start, len(candidates)):
            cost = costs[idx]
            if any(remaining.get(e, 0) < c for e, c in cost.items()):
                continue
            for e, c in cost.items():
                remaining[e] -= c
            chosen.append(candidates[idx])
            search(idx, left - sum(cost.values()))
            chosen.pop()
            for e, c in cost.items():
                remaining[e] += c

    search(0, sum(profile.values()))
    found.sort(key=MinkowskiDecomposition.sort_key)
    return found


@dataclass(frozen=True)
class CayleyCone:
    """Generators of the cone over the summands placed at the standard basis
    heights e_0, ..., e_p."""

    generators: tuple[IntVec, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "generators",
            tuple(tuple(int(x) for x in g) for g in self.generators),
        )

    def to_json_dict(self) -> dict:
        return {"generators": [list(g) for g in self.generators]}


def cayley_cone(decomposition: MinkowskiDecomposition) -> CayleyCone:
    """Generators (w, e_i) for every vertex w of the i-th summand, ordered by
    summand index and then lexicographically by vertex."""
    count = decomposition.p + 1
    gens = []
    for i, s in enumerate(decomposition.summands):
        tag = tuple(1 if j == i else 0 for j in range(count))
        for w in sorted(s.vertex_set()):
            gens.append(w + tag)
    return CayleyCone(tuple(gens))
