import math
import random
from itertools import combinations, product

import pytest

from syzkit import (
    MinkowskiDecomposition,
    UnimodularSimplex,
    chamber_uv,
    disc_potential,
    dual_fan_check,
    hull,
    is_unimodular_simplex,
    summand_from_vertices,
    syz_mirror,
)
from syzkit.cli import _cayley_output_bytes
from syzkit.lattice import vec_add
from syzkit.mirror import _slot_bytes

HEXAGON_CORNERS = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]


@pytest.fixture
def hexagon():
    return hull(HEXAGON_CORNERS)


@pytest.fixture
def unit_square():
    return hull([(0, 0), (1, 0), (1, 1), (0, 1)])


def seg(u):
    return UnimodularSimplex(len(u), (u,))


def tri(u, v):
    return UnimodularSimplex(len(u), (u, v))


@pytest.fixture
def hexagon_segments(hexagon):
    return MinkowskiDecomposition(
        hexagon, (0, 0), (seg((1, 0)), seg((0, 1)), seg((1, 1)))
    )


@pytest.fixture
def hexagon_triangles(hexagon):
    return MinkowskiDecomposition(
        hexagon, (0, 0), (tri((1, 0), (1, 1)), tri((0, 1), (1, 1)))
    )


@pytest.fixture
def conifold(unit_square):
    return MinkowskiDecomposition(unit_square, (0, 0), (seg((1, 0)), seg((0, 1))))


def ap_decomposition(p):
    segment = hull([(0,), (p + 1,)])
    return MinkowskiDecomposition(segment, (0,), tuple(seg((1,)) for _ in range(p + 1)))


@pytest.fixture
def a1():
    return ap_decomposition(1)


def minkowski_sum(p, q):
    """Hull of the pairwise vertex sums."""
    return hull([vec_add(a, b) for a in p.vertices for b in q.vertices])


def minkowski_sum_all(polys, dim):
    """Minkowski sum of a (possibly empty) sequence; the empty sum is the origin."""
    acc = hull([(0,) * dim])
    for p in polys:
        acc = minkowski_sum(acc, p)
    return acc


def sum_decomposition(parts):
    """The decomposition of the Minkowski sum of rank-2 simplices, pinned at
    its lexicographic minimum."""
    polytope = minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2)
    shift = polytope.lexmin
    return MinkowskiDecomposition(polytope.translate(tuple(-x for x in shift)), shift, tuple(parts))


def brute_det(rows):
    """Determinant by cofactor expansion, in any rank: the oracle for the
    closed forms that syzkit uses in rank 1 and 2."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * brute_det(minor)
    return total


def random_unimodular_simplex(rng: random.Random, lo=-2, hi=2) -> UnimodularSimplex:
    """Random origin-rooted unimodular segment or triangle with entries in [lo, hi]."""
    while True:
        if rng.random() < 0.5:
            u = (rng.randint(lo, hi), rng.randint(lo, hi))
            if u == (0, 0):
                continue
            try:
                return summand_from_vertices(2, ((0, 0), u))
            except ValueError:
                continue
        u = (rng.randint(lo, hi), rng.randint(lo, hi))
        v = (rng.randint(lo, hi), rng.randint(lo, hi))
        if abs(u[0] * v[1] - u[1] * v[0]) != 1:
            continue
        return summand_from_vertices(2, ((0, 0), u, v))


def unimodular_simplices(dim, bound=3):
    """Every origin-rooted unimodular simplex of the given rank whose
    generators have entries in [-bound, bound]."""
    vectors = [v for v in product(range(-bound, bound + 1), repeat=dim) if any(v)]
    found = {
        UnimodularSimplex(dim, gens)
        for k in range(1, dim + 1)
        for gens in combinations(vectors, k)
        if is_unimodular_simplex(gens)
    }
    return sorted(found, key=lambda s: (s.k, s.generators))


ZONOTOPE_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (-1, 2), (2, -1)]


def zonotope(m, n):
    """Minkowski sum of the segments [0, n*d] over the first m directions d."""
    corners = [(0, 0)]
    for d in ZONOTOPE_DIRECTIONS[:m]:
        corners = [(x + t * n * d[0], y + t * n * d[1]) for x, y in corners for t in (0, 1)]
    return hull(corners)


def packed_bytes(dec):
    """Bytes of the packed integer of a decomposition's g: the slots of P's
    bounding box times the slot width that g(1, ..., 1) needs."""
    verts = dec.polytope.vertices
    box = math.prod(
        max(v[j] for v in verts) - min(v[j] for v in verts) + 1
        for j in range(dec.polytope.dim)
    )
    return box * _slot_bytes(math.prod(1 + k for k in dec.ks))


def recorded_runs(build):
    """``build()`` and the run lists its decompositions' constructors stored,
    in order: the list handed to ``_of``, or the one ``__post_init__`` made."""
    stored = []
    real_of, real_init = MinkowskiDecomposition._of.__func__, MinkowskiDecomposition.__post_init__

    def of(cls, polytope, translation, runs):
        stored.append(runs)
        return real_of(cls, polytope, translation, runs)

    def post_init(self):
        real_init(self)
        stored.append(self._runs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MinkowskiDecomposition, "_of", classmethod(of))
        patch.setattr(MinkowskiDecomposition, "__post_init__", post_init)
        return build(), stored


def assert_kernels_keep_runs(dec):
    """Every reader of ``dec._runs`` (the wall kernel at each chamber, the
    dual-fan check and the ``cayley`` size) takes the list as it is: none
    replaces it, regroups it or changes it in place."""
    runs, copy = dec._runs, list(dec._runs)
    syz_mirror(dec)
    disc_potential(dec)
    for chamber in range(-1, dec.p + 1):
        chamber_uv(dec, chamber)
    if dec.polytope.dim == 2:
        dual_fan_check(dec)
    _cayley_output_bytes(dec)
    assert dec._runs is runs and runs == copy
