"""Exact integer convex geometry in ambient rank one and two.

Points are plain tuples of Python ints, so every computation here is
arbitrary precision; no floating point enters this module.
"""

from math import gcd
from operator import add, neg, sub

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    UnsupportedDimensionError,
    Value,
    json_int,
)

IntVec = tuple[int, ...]

SUPPORTED_DIMS = (1, 2)


def vec_add(a: IntVec, b: IntVec) -> IntVec:
    return tuple(map(add, a, b))


def vec_sub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(map(sub, a, b))


def vec_neg(a: IntVec) -> IntVec:
    return tuple(map(neg, a))


def cross(a: IntVec, b: IntVec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def lattice_length(v: IntVec) -> int:
    """Number of lattice steps along v: the gcd of its entries."""
    return gcd(*v)


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


def _chain(points) -> list[IntVec]:
    """The monotone chain through sorted ``points`` that turns left at every
    vertex kept: the lower hull in increasing order, the upper in decreasing."""
    chain: list[IntVec] = []
    for p in points:
        while len(chain) >= 2 and cross(vec_sub(chain[-1], chain[-2]), vec_sub(p, chain[-1])) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def _canonical_vertices(points: list[IntVec], d: int) -> list[IntVec]:
    """Extreme points in canonical order: increasing for d=1, counterclockwise
    from the lexicographic minimum for d=2."""
    uniq = sorted(set(points))
    if len(uniq) == 1:
        return uniq
    if d == 1:
        return [uniq[0], uniq[-1]]
    return _chain(uniq)[:-1] + _chain(reversed(uniq))[:-1]


class LatticePolytope(Value):
    """Vertex-represented convex lattice polytope of rank ``dim``.

    Vertices are stored canonically: counterclockwise starting from the
    lexicographic minimum in rank two, increasing in rank one.  Single points
    and segments are valid degenerate cases.
    """

    __slots__ = _fields = ("dim", "vertices")

    def __post_init__(self):
        verts = tuple(tuple(map(json_int, v)) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "dim", json_int(self.dim))
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
        offset = tuple(map(json_int, offset))
        if len(offset) != self.dim:
            raise DimensionMismatchError(f"offset {offset} does not have rank {self.dim}")
        # A translate of a canonical vertex list is still canonical.
        return LatticePolytope._of(self.dim, tuple(vec_add(v, offset) for v in self.vertices))

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
    pts = [tuple(map(json_int, p)) for p in points]
    if not pts:
        raise EmptyInputError("hull of an empty point set")
    d = len(pts[0])
    for p in pts:
        if len(p) != d:
            raise DimensionMismatchError("points of mixed rank")
    _check_dim(d)
    return LatticePolytope._of(d, tuple(_canonical_vertices(pts, d)))


def lattice_points(polytope: LatticePolytope) -> list[IntVec]:
    """All lattice points of the closed polytope, lexicographically sorted."""
    if polytope.dim == 1:
        lo, hi = polytope.vertices[0][0], polytope.vertices[-1][0]
        return [(x,) for x in range(lo, hi + 1)]
    return [(x, y) for x, lo, hi in _column_bounds(polytope) for y in range(lo, hi + 1)]


def _column_bounds(polytope: LatticePolytope):
    """``(x, lo(x), hi(x))`` for each column x of a rank-2 polytope, left to
    right: its lattice points in column x are (x, lo(x)), ..., (x, hi(x)).
    A segment is one column, keyed 0.

    The interior lies left of each counterclockwise edge a -> a + e, i.e.
    e_x * (y - a_y) >= e_y * (x - a_x).  The edges going right, in order,
    bound y from below (a ceiling), those going left, in order, from above
    (a floor), each over its own columns; a chain's end vertex gives its
    last column.  An edge of integer slope steps by a ``range``, a flat one
    repeats a_y, and only a fractional slope rounds each column.  A point or
    a vertical segment has no such edge: its one column runs from its first
    vertex to its last.
    """
    verts = polytope.vertices
    if polytope.dim == 1:
        return [(0, verts[0][0], verts[-1][0])]
    lows, highs, low_end, high_end = [], [], verts[0][1], verts[-1][1]
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        ex, ey = bx - ax, by - ay
        if ex > 0:
            lows += (
                [ay - (-ey * k) // ex for k in range(ex)] if ey % ex
                else range(ay, by, ey // ex) if ey else [ay] * ex
            )
            low_end = by
        elif ex < 0:
            highs += (
                [ay + (-ey * k) // ex for k in range(-ex)] if ey % ex
                else range(ay, by, -ey // ex) if ey else [ay] * -ex
            )
            high_end = by
    lows.append(low_end)
    highs.append(high_end)
    return zip(range(verts[0][0], verts[0][0] + len(lows)), lows, reversed(highs))


def edge_profile(polytope: LatticePolytope) -> dict[IntVec, int]:
    """Primitive edge directions of the counterclockwise boundary with lattice
    lengths.  A segment is traversed out and back, so both directions appear,
    as in {(1,): b - a, (-1,): b - a} for [a, b] in rank 1; a point has none."""
    verts = polytope.vertices
    if len(verts) == 1:
        return {}
    if polytope.dim == 1:
        return dict.fromkeys(((1,), (-1,)), verts[1][0] - verts[0][0])
    profile: dict[IntVec, int] = {}
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        ex, ey = bx - ax, by - ay
        g = gcd(ex, ey)
        profile[ex // g, ey // g] = g
    return profile


class RaySet(Value):
    """Finite set of primitive ray directions in the plane."""

    __slots__ = _fields = ("rays",)

    def __post_init__(self):
        rays = frozenset(tuple(map(json_int, r)) for r in self.rays)
        for r in rays:
            if len(r) != 2:
                raise UnsupportedDimensionError("rays live in rank two")
            if r != primitive(r):
                raise ValueError(f"ray {r} is not primitive")
        object.__setattr__(self, "rays", rays)

    def negated(self) -> "RaySet":
        return RaySet._of(frozenset(vec_neg(r) for r in self.rays))  # -r is primitive too

    def to_json_dict(self) -> dict:
        return {"rays": [list(r) for r in sorted(self.rays)]}


def normal_fan_rays(polytope: LatticePolytope) -> RaySet:
    """Primitive outward edge normals; both line normals for a segment, none for a point."""
    if polytope.dim != 2:
        raise UnsupportedDimensionError("normal fans are computed in rank two only")
    # edge_profile's directions are primitive, and so are their rotations
    return RaySet._of(frozenset((ey, -ex) for ex, ey in edge_profile(polytope)))


def is_unimodular_simplex(generators) -> bool:
    """True for one generator of lattice length one, or two rank-2 generators
    with ``|cross| == 1``: the unimodular simplices of rank 1 and 2.  Any other
    input (empty, mixed or unsupported rank, too many vectors) yields False.
    """
    try:
        gens = [tuple(map(json_int, g)) for g in generators]
    except TypeError:
        return False
    d = len(gens[0]) if gens else 0
    if d not in SUPPORTED_DIMS or any(len(g) != d for g in gens):
        return False
    if len(gens) == 1:
        return lattice_length(gens[0]) == 1
    return len(gens) == 2 and d == 2 and abs(cross(*gens)) == 1


class UnimodularSimplex(Value):
    """Simplex with vertex set {0, u_1, ..., u_k}; the generators u_l span a
    saturated sublattice, so the simplex is unimodular in its span."""

    _fields = ("dim", "generators")
    __slots__ = _fields + ("_box",)

    def __post_init__(self):
        gens = tuple(sorted(tuple(map(json_int, g)) for g in self.generators))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "dim", json_int(self.dim))
        _check_dim(self.dim)
        if not gens:
            raise ValueError("a simplex needs at least one generator")
        for g in gens:
            if len(g) != self.dim:
                raise DimensionMismatchError(f"generator {g} does not have rank {self.dim}")
        if not is_unimodular_simplex(gens):
            raise ValueError(f"generators {gens} do not span a unimodular simplex")

    def _kernel_box(self) -> tuple:
        """The wall kernel's box, kept from the first call, as the kernel reads
        it once per run on every call: least corner, extent, moved vertices,
        1 + k, all in rank 2; a rank-1 simplex lies on the column x = 0."""
        try:
            return self._box
        except AttributeError:
            verts = self.vertex_set()
            if self.dim == 1:
                verts = [(0, y) for (y,) in verts]
            low, high = tuple(map(min, *verts)), tuple(map(max, *verts))
            box = low, vec_sub(high, low), tuple(vec_sub(v, low) for v in verts), len(verts)
            object.__setattr__(self, "_box", box)
            return box

    @property
    def k(self) -> int:
        return len(self.generators)

    def vertex_set(self) -> tuple[IntVec, ...]:
        return ((0,) * self.dim,) + self.generators

    def edge_profile(self) -> dict[IntVec, int]:
        """The counterclockwise edges of the simplex, read from its generators:
        ``{u: 1, -u: 1}`` for a segment, ``{a: 1, b - a: 1, -b: 1}`` for a
        triangle with ``cross(a, b) > 0``.  Every edge has lattice length one
        because the simplex is unimodular."""
        if self.k == 1:
            (u,) = self.generators
            return {u: 1, vec_neg(u): 1}
        a, b = self.generators
        if cross(a, b) < 0:
            a, b = b, a
        return {a: 1, vec_sub(b, a): 1, vec_neg(b): 1}

    def to_json_dict(self) -> dict:
        return {"generators": [list(g) for g in self.generators]}
