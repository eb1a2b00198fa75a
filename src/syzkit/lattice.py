"""Exact integer convex geometry in ambient rank one and two.

Points are plain tuples of Python ints, so every computation here is
arbitrary precision; no floating point enters this module.
"""

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    UnsupportedDimensionError,
    json_int,
)
from .intlinalg import det

IntVec = tuple[int, ...]

SUPPORTED_DIMS = (1, 2)


def vec_add(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a: IntVec) -> IntVec:
    return tuple(-x for x in a)


def dot(a: IntVec, b: IntVec) -> int:
    return sum(x * y for x, y in zip(a, b))


def cross(a: IntVec, b: IntVec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def lattice_length(v: IntVec) -> int:
    """Number of lattice steps along v: the gcd of its entries."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v: IntVec) -> IntVec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = lattice_length(v)
    if g == 0:
        raise ValueError("the zero vector has no primitive representative")
    return tuple(x // g for x in v)


def _check_dim(d: int) -> None:
    if d not in SUPPORTED_DIMS:
        raise UnsupportedDimensionError(
            f"ambient rank {d} is not supported (expected 1 or 2)"
        )


def _canonical_vertices(points: list[IntVec], d: int) -> list[IntVec]:
    """Extreme points in canonical order: increasing for d=1, counterclockwise
    from the lexicographic minimum for d=2."""
    uniq = sorted(set(points))
    if len(uniq) == 1:
        return uniq
    if d == 1:
        return [uniq[0], uniq[-1]]
    lower: list[IntVec] = []
    for p in uniq:
        while len(lower) >= 2 and cross(vec_sub(lower[-1], lower[-2]), vec_sub(p, lower[-1])) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[IntVec] = []
    for p in reversed(uniq):
        while len(upper) >= 2 and cross(vec_sub(upper[-1], upper[-2]), vec_sub(p, upper[-1])) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class LatticePolytope:
    """Vertex-represented convex lattice polytope.

    Vertices are stored canonically: counterclockwise starting from the
    lexicographic minimum in rank two, increasing in rank one.  Single points
    and segments are valid degenerate cases.
    """

    dim: int
    vertices: tuple[IntVec, ...]

    def __post_init__(self):
        verts = tuple(tuple(int(x) for x in v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "dim", int(self.dim))
        _check_dim(self.dim)
        if not verts:
            raise EmptyInputError("a polytope needs at least one vertex")
        for v in verts:
            if len(v) != self.dim:
                raise DimensionMismatchError(f"vertex {v} does not have rank {self.dim}")
        if tuple(_canonical_vertices(list(verts), self.dim)) != verts:
            raise ValueError("vertices are not in canonical hull form; build polytopes with hull()")

    @property
    def lexmin(self) -> IntVec:
        return self.vertices[0]

    def translate(self, offset: IntVec) -> "LatticePolytope":
        return LatticePolytope(self.dim, tuple(vec_add(v, offset) for v in self.vertices))

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "vertices": [list(v) for v in self.vertices]}


def polytope_from_json_dict(data: dict) -> LatticePolytope:
    """Parse {"dim": d, "vertices": [...]}; vertices may come in any order."""
    poly = hull(tuple(tuple(map(json_int, v)) for v in data["vertices"]))
    if json_int(data["dim"]) != poly.dim:
        raise DimensionMismatchError(
            f"declared dim {data['dim']} does not match vertex rank {poly.dim}"
        )
    return poly


def hull(points) -> LatticePolytope:
    """Canonical convex hull of a nonempty set of lattice points (rank 1 or 2)."""
    pts = [tuple(int(x) for x in p) for p in points]
    if not pts:
        raise EmptyInputError("hull of an empty point set")
    d = len(pts[0])
    for p in pts:
        if len(p) != d:
            raise DimensionMismatchError("points of mixed rank")
    _check_dim(d)
    return LatticePolytope(d, tuple(_canonical_vertices(pts, d)))


def lattice_points(polytope: LatticePolytope) -> list[IntVec]:
    """All lattice points of the closed polytope, lexicographically sorted."""
    if polytope.dim == 1:
        lo, hi = polytope.vertices[0][0], polytope.vertices[-1][0]
        return [(x,) for x in range(lo, hi + 1)]
    verts = polytope.vertices
    if len(verts) == 1:
        return [verts[0]]
    if len(verts) == 2:
        span = vec_sub(verts[1], verts[0])
        step = primitive(span)
        return sorted(
            tuple(v + t * s for v, s in zip(verts[0], step))
            for t in range(lattice_length(span) + 1)
        )
    # Column by column: the interior lies left of each counterclockwise edge
    # a -> a + e, i.e. e_x * (y - a_y) >= e_y * (x - a_x).  Edges going right
    # bound y from below, edges going left from above, and vertical edges
    # only bound x, which the vertices already do.
    edges = [(a, vec_sub(b, a)) for a, b in zip(verts, verts[1:] + verts[:1])]
    lower = [(a, e) for a, e in edges if e[0] > 0]
    upper = [(a, e) for a, e in edges if e[0] < 0]
    out = []
    for x in range(verts[0][0], max(v[0] for v in verts) + 1):
        lo = max(ay - ey * (ax - x) // ex for (ax, ay), (ex, ey) in lower)
        hi = min(ay + ey * (x - ax) // ex for (ax, ay), (ex, ey) in upper)
        out.extend((x, y) for y in range(lo, hi + 1))
    return out


def minkowski_sum(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    """Hull of the pairwise vertex sums."""
    if p.dim != q.dim:
        raise DimensionMismatchError(f"rank {p.dim} vs rank {q.dim}")
    return hull([vec_add(a, b) for a in p.vertices for b in q.vertices])


def minkowski_sum_all(polys, dim: int) -> LatticePolytope:
    """Minkowski sum of a (possibly empty) sequence; the empty sum is the origin."""
    acc = hull([(0,) * dim])
    for p in polys:
        acc = minkowski_sum(acc, p)
    return acc


def edge_profile(polytope: LatticePolytope) -> dict[IntVec, int]:
    """Primitive edge directions of the counterclockwise boundary with lattice lengths.

    A segment is traversed out and back, so both directions appear; a point
    has no edges.
    """
    verts = polytope.vertices
    if len(verts) == 1:
        return {}
    if polytope.dim == 1 or len(verts) == 2:
        span = vec_sub(verts[-1], verts[0])
        step = primitive(span)
        length = lattice_length(span)
        return {step: length, vec_neg(step): length}
    profile: dict[IntVec, int] = {}
    for a, b in zip(verts, verts[1:] + verts[:1]):
        e = vec_sub(b, a)
        profile[primitive(e)] = lattice_length(e)
    return profile


@dataclass(frozen=True)
class RaySet:
    """Finite set of primitive ray directions in the plane."""

    rays: frozenset

    def __post_init__(self):
        rays = frozenset(tuple(int(x) for x in r) for r in self.rays)
        for r in rays:
            if len(r) != 2:
                raise UnsupportedDimensionError("rays live in rank two")
            if r != primitive(r):
                raise ValueError(f"ray {r} is not primitive")
        object.__setattr__(self, "rays", rays)

    def sorted_rays(self) -> list[IntVec]:
        return sorted(self.rays)

    def negated(self) -> "RaySet":
        return RaySet(frozenset(vec_neg(r) for r in self.rays))

    def __or__(self, other: "RaySet") -> "RaySet":
        return RaySet(self.rays | other.rays)

    def __contains__(self, ray) -> bool:
        return tuple(ray) in self.rays

    def __len__(self) -> int:
        return len(self.rays)

    def to_json_dict(self) -> dict:
        return {"rays": [list(r) for r in self.sorted_rays()]}


def normal_fan_rays(polytope: LatticePolytope) -> RaySet:
    """Primitive outward edge normals; both line normals for a segment, none for a point."""
    if polytope.dim != 2:
        raise UnsupportedDimensionError("normal fans are computed in rank two only")
    verts = polytope.vertices
    if len(verts) == 1:
        return RaySet(frozenset())
    if len(verts) == 2:
        e = vec_sub(verts[1], verts[0])
        n = primitive((e[1], -e[0]))
        return RaySet(frozenset({n, vec_neg(n)}))
    rays = set()
    for a, b in zip(verts, verts[1:] + verts[:1]):
        e = vec_sub(b, a)
        rays.add(primitive((e[1], -e[0])))
    return RaySet(frozenset(rays))


def is_unimodular_simplex(generators) -> bool:
    """True when the vectors are independent and the gcd of their maximal minors is one.

    Malformed input (empty list, mixed ranks, too many vectors) yields False
    rather than an error.
    """
    try:
        gens = [tuple(int(x) for x in g) for g in generators]
    except (TypeError, ValueError):
        return False
    if not gens:
        return False
    d = len(gens[0])
    if any(len(g) != d for g in gens):
        return False
    k = len(gens)
    if k > d:
        return False
    g = 0
    for cols in combinations(range(d), k):
        minor = det([[row[c] for c in cols] for row in gens])
        g = gcd(g, minor)
    return g == 1


@dataclass(frozen=True)
class UnimodularSimplex:
    """Simplex with vertex set {0, u_1, ..., u_k}; the generators u_l span a
    saturated sublattice, so the simplex is unimodular in its span."""

    dim: int
    generators: tuple[IntVec, ...]

    def __post_init__(self):
        gens = tuple(sorted(tuple(int(x) for x in g) for g in self.generators))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "dim", int(self.dim))
        if not gens:
            raise ValueError("a simplex needs at least one generator")
        for g in gens:
            if len(g) != self.dim:
                raise DimensionMismatchError(f"generator {g} does not have rank {self.dim}")
        if not is_unimodular_simplex(gens):
            raise ValueError(f"generators {gens} do not span a unimodular simplex")

    @property
    def k(self) -> int:
        return len(self.generators)

    def vertex_set(self) -> tuple[IntVec, ...]:
        return ((0,) * self.dim,) + self.generators

    def to_json_dict(self) -> dict:
        return {"generators": [list(g) for g in self.generators]}
