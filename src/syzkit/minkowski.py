"""Minkowski decompositions of lattice polytopes into unimodular simplices,
and the Cayley cone attached to a decomposition.

Decompositions rest on the edge-budget law: Minkowski sums add edge profiles,
and a polytope pinned at its lexicographic minimum is fixed by its profile.
So the sum invariant is checked by comparing profiles, and the enumeration
searches triangle multiplicities only: what they leave of the polytope's edge
budget must be antipodally symmetric, and it fixes every unit segment.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .errors import (
    DimensionMismatchError,
    OutputTooLargeError,
    SearchBudgetExceededError,
    json_int,
)
from .lattice import (
    IntVec,
    LatticePolytope,
    UnimodularSimplex,
    cross,
    edge_profile,
    hull,
    polytope_from_json_dict,
    vec_add,
    vec_neg,
    vec_sub,
)

DEFAULT_SEARCH_BUDGET = 10_000_000

# Cap on the summands of one decomposition.  A segment summand spends two
# units of the polytope's edge budget and a triangle three, so no
# decomposition has more than half the lattice perimeter in summands.
MAX_SUMMANDS = 1_000_000


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
        # Summands are mostly a few types repeated, so each distinct one is
        # canonicalised, rank-checked and hulled once, weighted by its count.
        # One whose least generator is lexicographically positive is already
        # rooted at its lexicographic minimum, hence canonical.
        runs: Counter = Counter()
        for s, m in Counter(self.summands).items():
            runs[s if s.generators[0] > (0,) * s.dim else canonical_summand(s)] += m
        types = sorted(runs, key=summand_sort_key)
        summands = tuple(chain.from_iterable((s,) * runs[s] for s in types))
        object.__setattr__(self, "summands", summands)
        d = self.polytope.dim
        if self.polytope.lexmin != (0,) * d:
            raise ValueError(
                "decomposition polytope must have its lexicographic minimum at the origin"
            )
        if len(self.translation) != d:
            raise DimensionMismatchError("translation point has the wrong rank")
        if any(s.dim != d for s in types):
            raise DimensionMismatchError("summand rank differs from the polytope rank")
        total: dict[IntVec, int] = {}
        for s in types:
            for e, n in edge_profile(hull(s.vertex_set())).items():
                total[e] = total.get(e, 0) + runs[s] * n
        if total != edge_profile(self.polytope):
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
    translation = tuple(map(json_int, data.get("translation", (0,) * poly.dim)))
    summands = tuple(
        UnimodularSimplex(
            poly.dim, tuple(tuple(map(json_int, g)) for g in s["generators"])
        )
        for s in data["summands"]
    )
    shift = poly.lexmin
    return MinkowskiDecomposition(
        poly.translate(vec_neg(shift)), vec_add(translation, shift), summands
    )


def verify_decomposition(polytope: LatticePolytope, summands) -> bool:
    """Exact check, the one ``MinkowskiDecomposition`` makes, that the summands
    are unimodular simplices whose Minkowski sum is the translate of the
    polytope rooted at its lexicographic minimum."""
    shift = polytope.lexmin
    try:
        MinkowskiDecomposition(polytope.translate(vec_neg(shift)), shift, tuple(summands))
    except ValueError:
        return False
    return True


def _unimodular_triangles(profile: dict[IntVec, int]) -> list[tuple[IntVec, IntVec, IntVec]]:
    """Counterclockwise edge triples ``(a, b, -(a+b))`` with ``cross(a, b) == 1``
    and all three edges among the profile's directions.  Each triangle is
    listed once, as the rotation that starts at its least edge."""
    triples = ((a, b, vec_neg(vec_add(a, b))) for a in profile for b in profile if cross(a, b) == 1)
    return sorted(t for t in triples if t[2] in profile and t[0] == min(t))


def enumerate_decompositions(
    polytope: LatticePolytope, budget: int | None = None
) -> list[MinkowskiDecomposition]:
    """All decompositions of the polytope into origin-rooted unimodular
    simplices, up to summand reordering, in deterministic canonical order.

    The search walks each unimodular triangle's multiplicity, bounded by the
    edge budget left, one triangle type per level.  Once the last triangle
    touching a direction pair ``{u, -u}`` is placed, the budget left on the
    pair must be symmetric, and it is spent on that many unit segments.
    ``budget`` caps the search nodes (default 10^7), one node per choice of
    one triangle's multiplicity; past it, SearchBudgetExceededError is raised.
    A polytope whose half lattice perimeter exceeds MAX_SUMMANDS could yield
    that many summands, and raises OutputTooLargeError before any is built.
    """
    max_nodes = DEFAULT_SEARCH_BUDGET if budget is None else int(budget)
    d = polytope.dim
    shift = polytope.lexmin
    base = polytope.translate(vec_neg(shift))
    left = edge_profile(base)
    bound = sum(left.values()) // 2
    if bound > MAX_SUMMANDS:
        raise OutputTooLargeError(
            f"a decomposition may have up to {bound} summands, "
            f"past the cap of {MAX_SUMMANDS}"
        )
    triangles = _unimodular_triangles(left) if d == 2 else []
    simplices = [summand_from_vertices(d, ((0, 0), a, vec_add(a, b))) for a, b, _ in triangles]
    units = {u: UnimodularSimplex(d, (u,)) for u in left if u > vec_neg(u)}
    # settle[i]: the directions whose pair no triangle from the i-th on touches
    settle: list[list[IntVec]] = [[] for _ in range(len(triangles) + 1)]
    for u in left:
        last = max((i + 1 for i, t in enumerate(triangles) if {u, vec_neg(u)} & set(t)), default=0)
        settle[last].append(u)
    found: list[MinkowskiDecomposition] = []
    chosen: list[UnimodularSimplex] = []
    nodes = 0

    def place(i: int) -> None:
        nonlocal nodes
        if any(left[u] != left.get(vec_neg(u), 0) for u in settle[i]):
            return
        if i == len(triangles):
            summands = list(chosen)
            for u, unit in units.items():
                summands += [unit] * left[u]
            found.append(MinkowskiDecomposition(base, shift, tuple(summands)))
            return
        edges = triangles[i]
        top = min(left[e] for e in edges)
        for m in range(top + 1):
            nodes += 1
            if nodes > max_nodes:
                raise SearchBudgetExceededError(f"decomposition search exceeded {max_nodes} nodes")
            if m:
                for e in edges:
                    left[e] -= 1
                chosen.append(simplices[i])
            place(i + 1)
        for e in edges:
            left[e] += top
        del chosen[len(chosen) - top:]

    place(0)
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
