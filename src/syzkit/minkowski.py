"""Minkowski decompositions of lattice polytopes into unimodular simplices,
and the Cayley cone attached to a decomposition.

Decompositions rest on the edge-budget law: Minkowski sums add edge profiles,
and a polytope pinned at its lexicographic minimum is fixed by its profile.
So the sum invariant is checked by comparing profiles, and the enumeration
searches triangle multiplicities only: what they leave of the polytope's edge
budget must be antipodally symmetric, and it fixes every unit segment.
"""

from collections import Counter
from itertools import chain, compress

from .errors import (
    DimensionMismatchError,
    OutputTooLargeError,
    SearchBudgetExceededError,
    Value,
    json_int,
)
from .lattice import (
    IntVec,
    LatticePolytope,
    UnimodularSimplex,
    edge_profile,
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


def _search_budget(budget) -> int:
    """The cap ``budget`` names: DEFAULT_SEARCH_BUDGET for None, else a
    nonnegative int; a negative one raises ValueError."""
    if budget is None:
        return DEFAULT_SEARCH_BUDGET
    if json_int(budget) < 0:
        raise ValueError(f"the budget must be nonnegative, not {budget}")
    return budget


def summand_sort_key(summand: UnimodularSimplex) -> tuple:
    # generators compare by reversed coordinates; this fixes the wall
    # labelling so that the e1-type summand precedes the e2-type one
    return (summand.k, tuple([g[::-1] for g in summand.generators]))


def summand_from_vertices(dim: int, vertices) -> UnimodularSimplex:
    """Summand rooted so its lexicographic minimum vertex sits at the origin."""
    verts = sorted(set(tuple(map(json_int, v)) for v in vertices))
    root = verts[0]
    return UnimodularSimplex(dim, tuple(vec_sub(v, root) for v in verts[1:]))


def canonical_summand(summand: UnimodularSimplex) -> UnimodularSimplex:
    return summand_from_vertices(summand.dim, summand.vertex_set())


class MinkowskiDecomposition(Value):
    """A polytope written as a Minkowski sum of unimodular simplices.

    The polytope is pinned with its lexicographic minimum vertex at the
    origin; ``translation`` records the vertex of the original polytope that
    was moved there.  Summands are rooted at the origin and kept as runs
    ``(summand, count)`` of distinct types in canonical order, which also
    fixes the wall indexing downstream; ``summands`` expands them, and
    equality and hash read the runs.  ``_of`` takes such runs, whose edge
    profiles add up to the pinned polytope's, and does not check them again:
    the search builds its results so.
    """

    _fields = ("polytope", "translation", "summands")
    __slots__ = ("polytope", "translation", "_runs")

    def __post_init__(self):
        object.__setattr__(self, "translation", tuple(map(json_int, self.translation)))
        if not isinstance(self._runs, (tuple, list)):  # the summands as given, until grouped
            kind = type(self._runs).__name__
            raise TypeError(f"summands must be a tuple or a list, not a {kind}")
        # Summands are mostly a few types repeated, so each distinct one is
        # canonicalised, rank-checked and profiled once, weighted by its count.
        # One whose least generator is lexicographically positive is already
        # rooted at its lexicographic minimum, hence canonical.
        runs: Counter = Counter()
        for s, m in Counter(self._runs).items():
            if type(s) is not UnimodularSimplex:
                raise TypeError(f"expected a UnimodularSimplex summand, got {s!r}")
            runs[s if s.generators[0] > (0,) * s.dim else canonical_summand(s)] += m
        types = sorted(runs, key=summand_sort_key)
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
            for e, n in s.edge_profile().items():
                total[e] = total.get(e, 0) + runs[s] * n
        if total != edge_profile(self.polytope):
            raise ValueError("summands do not sum to the polytope")
        object.__setattr__(self, "_runs", [(s, runs[s]) for s in types])

    def __hash__(self):  # the stored fields, so no summand is expanded
        return hash((self.polytope, self.translation, *self._runs))

    @property
    def summands(self) -> tuple[UnimodularSimplex, ...]:
        return tuple(chain.from_iterable((s,) * m for s, m in self._runs))

    @property
    def p(self) -> int:
        p = -1  # a plain loop: _cut reads p on every chamber_uv call
        for _, m in self._runs:
            p += m
        return p

    @property
    def ks(self) -> tuple[int, ...]:
        """The summand sizes."""
        return tuple(chain.from_iterable((s.k,) * m for s, m in self._runs))

    def to_json_dict(self) -> dict:
        return {
            "polytope": self.polytope.to_json_dict(),
            "translation": list(self.translation),
            "summands": [s.to_json_dict() for s, m in self._runs for _ in range(m)],
        }


def decomposition_from_json_dict(data: dict) -> MinkowskiDecomposition:
    poly = polytope_from_json_dict(data["polytope"])
    translation = tuple(map(json_int, data.get("translation", (0,) * poly.dim)))
    summands = tuple(UnimodularSimplex(poly.dim, s["generators"]) for s in data["summands"])
    if len(translation) != poly.dim:
        raise DimensionMismatchError("translation point has the wrong rank")
    shift = poly.lexmin
    return MinkowskiDecomposition(
        poly.translate(vec_neg(shift)), vec_add(translation, shift), summands
    )


def _cut(decomposition: MinkowskiDecomposition, chamber: int) -> int:
    """The number of walls below a fiber in the chamber: walls i <= chamber
    are in its D0 sector, the rest in Dinf.  A chamber that is not an int,
    a bool among them, raises TypeError."""
    if not -1 <= json_int(chamber) <= decomposition.p:
        raise ValueError(f"chamber {chamber} outside -1..{decomposition.p}")
    return chamber + 1


def verify_decomposition(polytope: LatticePolytope, summands) -> bool:
    """Exact check, the one ``MinkowskiDecomposition`` makes, that the summands
    are unimodular simplices of the polytope's rank whose Minkowski sum is the
    translate of the polytope rooted at its lexicographic minimum."""
    shift = polytope.lexmin
    try:
        MinkowskiDecomposition(polytope.translate(vec_neg(shift)), shift, tuple(summands))
    except (ValueError, DimensionMismatchError):
        return False
    return True


def _unimodular_triangles(profile: dict[IntVec, int]) -> list[tuple[IntVec, IntVec, IntVec]]:
    """Counterclockwise edge triples ``(a, b, -(a+b))`` with ``cross(a, b) == 1``
    and all three edges among the profile's directions.  Each triangle is
    listed once, as the rotation that starts at its least edge."""
    return sorted([
        (a, b, c) for a in profile for b in profile
        if a < b and a[0] * b[1] - a[1] * b[0] == 1
        and a < (c := (-a[0] - b[0], -a[1] - b[1])) and c in profile
    ])


def enumerate_decompositions(
    polytope: LatticePolytope, budget: int | None = None
) -> list[MinkowskiDecomposition]:
    """All decompositions of the polytope into origin-rooted unimodular
    simplices, up to summand reordering, in deterministic canonical order.

    The search walks each unimodular triangle's multiplicity, bounded by the
    edge budget left, one triangle type per level.  Once the last triangle
    touching a direction pair ``{u, -u}`` is placed, the budget left on the
    pair must be symmetric, and it is spent on that many unit segments.  A
    triangle after which a pair settles has exactly one of ``u``, ``-u`` among
    its edges, so that pair forces its multiplicity: the one choice that
    leaves the pair symmetric, if it fits the budget left.
    ``budget`` caps the search nodes (default 10^7), one node per
    multiplicity tried, forced ones included; past it,
    SearchBudgetExceededError is raised, and a negative one raises ValueError.
    A polytope whose half lattice perimeter exceeds MAX_SUMMANDS could yield
    that many summands, and raises OutputTooLargeError before any is built.
    """
    max_nodes = _search_budget(budget)
    d = polytope.dim
    left = edge_profile(polytope)  # translation-invariant: P's edges, as P walks them
    bound = sum(left.values()) // 2
    if bound > MAX_SUMMANDS:
        raise OutputTooLargeError(
            f"a decomposition may have up to {bound} summands, "
            f"past the cap of {MAX_SUMMANDS}"
        )
    triangles = _unimodular_triangles(left) if d == 2 else []
    # settle[i]: the pairs (u, -u) that no triangle from the i-th on touches;
    # forced[i]: a pair (u, -u) that settles after the i-th triangle, u its edge
    last = {e: i for i, t in enumerate(triangles, 1) for e in t}
    settle: list[list[tuple[IntVec, IntVec]]] = [[] for _ in range(len(triangles) + 1)]
    forced: list[tuple[IntVec, IntVec] | None] = [None] * len(triangles)
    units = []
    for u in left:
        nu = (-u[0], -u[-1])[:d]  # -u; in rank 1, u[0] is u[-1]
        if u > nu:
            units.append(u)
        i = max(last.get(u, 0), last.get(nu, 0))
        settle[i].append((u, nu))
        if last.get(u) == i:
            forced[i - 1] = u, nu
    # Each candidate type is built canonical and unchecked: the triangle on
    # 0, a, a + b, rooted at its least vertex, is unimodular as cross(a, b) == 1,
    # and each unit segment (u,) has a primitive u > -u.
    types = []
    for a, b, _ in triangles:
        (x0, y0), (x1, y1), (x2, y2) = sorted(((0, 0), a, (a[0] + b[0], a[1] + b[1])))
        types.append(UnimodularSimplex._of(d, ((x1 - x0, y1 - y0), (x2 - x0, y2 - y0))))
    types += [UnimodularSimplex._of(d, (u,)) for u in units]
    keys = [summand_sort_key(s) for s in types]
    order = sorted(range(len(types)), key=keys.__getitem__)
    counts = [0] * len(types)  # the multiplicity of each type
    found: list[tuple[int, ...]] = []  # the counts of each result, in type-key order
    types = [types[t] for t in order]  # the types in that order
    nodes = 0

    # plain loops on the node path: a generator costs as much as a node's dict reads
    def place(i: int) -> None:
        nonlocal nodes
        for u, nu in settle[i]:
            if left[u] != left.get(nu, 0):
                return
        if i == len(triangles):
            # the settled pairs and the unit counts spend the edge budget exactly
            for j, u in enumerate(units, len(triangles)):
                counts[j] = left[u]
            found.append(tuple([counts[t] for t in order]))
            return
        a, b, c = triangles[i]
        low, top = 0, min(left[a], left[b], left[c])
        if (pair := forced[i]) is not None:
            # the one multiplicity that leaves the pair symmetric
            low = left[pair[0]] - left.get(pair[1], 0)
            if not 0 <= low <= top:
                return
            top = low
        spend = low  # the first node spends low, each later one 1 more
        for m in range(low, top + 1):
            nodes += 1
            if nodes > max_nodes:
                raise SearchBudgetExceededError(
                    f"decomposition search exceeded {max_nodes} nodes: "
                    f"{len(found)} decompositions found in {nodes - 1} nodes visited"
                )
            left[a] -= spend
            left[b] -= spend
            left[c] -= spend
            counts[i] = m
            place(i + 1)
            spend = 1
        left[a] += top
        left[b] += top
        left[c] += top

    place(0)
    # Descending count vectors order the results as their expanded sort keys
    # do.  At the first type where two vectors differ, either both counts are
    # nonzero and the longer run comes first, because its next summand key is
    # still that type's; or one count is 0, and the other result's next run
    # has the earlier type key.  The result with the 0 cannot end there
    # instead: every summand spends part of the same total edge budget, so no
    # result's summands are a proper prefix of another's.
    found.sort(reverse=True)
    shift = polytope.lexmin  # a translate of canonical vertices is canonical
    base = LatticePolytope._of(d, tuple([vec_sub(v, shift) for v in polytope.vertices]))
    return [
        MinkowskiDecomposition._of(base, shift, list(compress(zip(types, vec), vec)))
        for vec in found
    ]


class CayleyCone(Value):
    """Generators of the cone over the summands placed at the standard basis
    heights e_0, ..., e_p."""

    __slots__ = _fields = ("generators",)

    def __post_init__(self):
        object.__setattr__(
            self,
            "generators",
            tuple(tuple(map(json_int, g)) for g in self.generators),
        )

    def to_json_dict(self) -> dict:
        return {"generators": [list(g) for g in self.generators]}


def cayley_cone(decomposition: MinkowskiDecomposition) -> CayleyCone:
    """Generators (w, e_i) for every vertex w of the i-th summand, ordered by
    summand index and then lexicographically by vertex."""
    count, gens, start = decomposition.p + 1, [], 0
    for s, m in decomposition._runs:  # one vertex sort per run
        verts = sorted(s.vertex_set())
        for i in range(start, start + m):
            gens += [w + (0,) * i + (1,) + (0,) * (count - 1 - i) for w in verts]
        start += m
    return CayleyCone._of(tuple(gens))  # int tuples, as __post_init__ leaves them
