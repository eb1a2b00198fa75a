import json
import pickle
import random
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from syzkit import (
    DimensionMismatchError,
    EmptyInputError,
    LatticePolytope,
    RaySet,
    UnimodularSimplex,
    UnsupportedDimensionError,
    edge_profile,
    hull,
    is_unimodular_simplex,
    lattice_points,
    normal_fan_rays,
    polytope_from_json_dict,
)
from syzkit import lattice as lattice_module
from syzkit.lattice import cross, lattice_length, primitive, vec_sub
from conftest import brute_det, minkowski_sum, unimodular_simplices

HEXAGON = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]


def unimodular_by_minors(gens):
    """The general-rank test: at most d generators whose maximal minors
    have gcd one."""
    k, d = len(gens), len(gens[0])
    if k > d:
        return False
    g = 0
    for cols in combinations(range(d), k):
        g = gcd(g, brute_det([[row[c] for c in cols] for row in gens]))
    return g == 1


class TestHull:
    def test_square_duplicates_removed(self):
        got = hull([(0, 0), (1, 0), (1, 1), (0, 1), (1, 0)])
        assert got.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))

    def test_hexagon_interior_point_dropped(self):
        got = hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1), (1, 1)])
        assert got.vertices == tuple(HEXAGON)

    def test_collinear_input_gives_segment(self):
        got = hull([(0, 0), (2, 0), (1, 0)])
        assert got.vertices == ((0, 0), (2, 0))

    def test_single_point(self):
        assert hull([(3, -2), (3, -2)]).vertices == ((3, -2),)

    def test_rank_one(self):
        assert hull([(4,), (0,), (2,)]).vertices == ((0,), (4,))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 10))]
            p = hull(pts)
            assert hull(p.vertices) == p

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            hull([])
        with pytest.raises(UnsupportedDimensionError):
            hull([(1, 2, 3)])
        with pytest.raises(DimensionMismatchError):
            hull([(1, 2), (1,)])

    def test_translate_checks_the_offset_rank(self):
        square = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert square.translate((2, -1)) == hull([(2, -1), (3, -1), (3, 0), (2, 0)])
        assert hull([(4,), (1,)]).translate((-3,)) == hull([(-2,), (1,)])
        for offset in ((2,), (2, -1, 7)):
            with pytest.raises(DimensionMismatchError):
                square.translate(offset)

    def test_non_canonical_construction_rejected(self):
        with pytest.raises(ValueError):
            LatticePolytope(2, ((1, 0), (0, 0), (1, 1), (0, 1)))
        with pytest.raises(ValueError):
            LatticePolytope(2, ((0, 0), (1, 1), (2, 2)))  # a collinear middle point

    @pytest.mark.parametrize("build, error", [
        (lambda: LatticePolytope(2, ()), EmptyInputError),
        (lambda: LatticePolytope(2, ((0,),)), DimensionMismatchError),
        (lambda: RaySet(frozenset({(1, 0, 0)})), UnsupportedDimensionError),
        (lambda: RaySet(frozenset({(2, 4)})), ValueError),
        (lambda: RaySet({(0, 0)}), ValueError),
        (lambda: UnimodularSimplex(2, ()), ValueError),
    ], ids=["no vertex", "vertex of the wrong rank", "rank-3 ray", "non-primitive ray",
            "zero ray", "simplex without generators"])
    def test_public_constructor_errors(self, build, error):
        with pytest.raises(error):
            build()


class TestHullCanonicalisesOnce:
    def test_one_canonical_vertices_call_per_hull(self, monkeypatch):
        calls = []
        real = lattice_module._canonical_vertices

        def counted(points, d):
            calls.append(d)
            return real(points, d)

        monkeypatch.setattr(lattice_module, "_canonical_vertices", counted)
        got = hull([(2, 1), (0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (1, 0)])
        assert got.vertices == tuple(HEXAGON)
        assert calls == [2]
        assert hull([(5,), (3,), (4,)]).vertices == ((3,), (5,))
        assert calls == [2, 1]

    def test_translate_does_not_canonicalise_again(self, monkeypatch):
        hexagon, segment = hull(HEXAGON), hull([(5,), (3,)])

        def refuse(points, d):
            raise AssertionError("a translate was canonicalised again")

        monkeypatch.setattr(lattice_module, "_canonical_vertices", refuse)
        moved = hexagon.translate((-4, 9))
        assert moved.vertices == tuple((x - 4, y + 9) for x, y in HEXAGON)
        assert segment.translate((2,)).vertices == ((5,), (7,))
        monkeypatch.undo()
        assert moved == LatticePolytope(2, moved.vertices)

    def test_hull_output_equals_a_validated_polytope(self):
        for points in ([(0, 0), (3, 1), (1, 1), (2, 5)], [(4,), (-1,)], [(2, 2)]):
            got = hull(points)
            assert got == LatticePolytope(got.dim, got.vertices)


class TestLatticePoints:
    def test_unit_square(self):
        square = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert lattice_points(square) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_hexagon_has_seven_points(self):
        pts = lattice_points(hull(HEXAGON))
        assert pts == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]

    def test_rank_one_segment(self):
        assert lattice_points(hull([(0,), (3,)])) == [(0,), (1,), (2,), (3,)]

    def test_diagonal_segment_in_plane(self):
        assert lattice_points(hull([(0, 0), (2, 2)])) == [(0, 0), (1, 1), (2, 2)]

    def test_point(self):
        assert lattice_points(hull([(5, 5)])) == [(5, 5)]

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=7))
    @example([(0, 0), (0, 5), (3, 2)])  # vertical edge on the left
    @example([(0, 0), (4, 1), (4, 6), (1, 3)])  # vertical edge on the right
    @example([(-9, -9), (9, -9), (9, 9), (-9, 9)])  # two vertical edges
    @example([(2, -7), (2, 8)])  # vertical segment
    @example([(-3, 4)])
    @example([(0, 0), (4, 6)])  # slanted segment of lattice length 2
    @example([(-3, 5), (5, -7)])  # slanted segment of lattice length 4, going down
    def test_row_scan_matches_box_scan_and_pick(self, points):
        polytope = hull(points)
        got = lattice_points(polytope)
        assert got == box_scan_lattice_points(polytope)
        # Pick: #points = A + B/2 + 1; a segment's profile counts it twice, A = 0
        verts = polytope.vertices
        twice_area = sum(cross(a, b) for a, b in zip(verts, verts[1:] + verts[:1]))
        boundary = sum(edge_profile(polytope).values())
        assert 2 * len(got) == twice_area + boundary + 2


def box_scan_lattice_points(polytope):
    """The bounding-box scan that ``lattice_points`` replaced, kept as its oracle."""
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
    edges = list(zip(verts, verts[1:] + verts[:1]))
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            if all(cross(vec_sub(b, a), vec_sub(p, a)) >= 0 for a, b in edges):
                out.append(p)
    return out


def comprehension_column_bounds(polytope):
    """``_column_bounds`` as it was before edges of integer slope stepped by a
    ``range``: every edge's columns rounded one by one.  Kept as the oracle of
    the range path."""
    verts = polytope.vertices
    if polytope.dim == 1:
        return [(0, verts[0][0], verts[-1][0])]
    lows, highs, low_end, high_end = [], [], verts[0][1], verts[-1][1]
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        ex, ey = bx - ax, by - ay
        if ex > 0:
            lows += [ay - (-ey * k) // ex for k in range(ex)]
            low_end = by
        elif ex < 0:
            highs += [ay + (-ey * k) // ex for k in range(-ex)]
            high_end = by
    lows.append(low_end)
    highs.append(high_end)
    return list(zip(range(verts[0][0], verts[0][0] + len(lows)), lows, reversed(highs)))


def edge_kinds(polytope):
    """The kinds of the counterclockwise edges of a rank-2 polytope: "flat",
    "integer" (nonzero integer slope), "fractional" or "vertical"; a segment
    is one edge out and back, and a point is its own kind."""
    verts = polytope.vertices
    if len(verts) == 1:
        return {"point"}
    kinds = {"segment"} if len(verts) == 2 else set()
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        ex, ey = bx - ax, by - ay
        kinds.add("vertical" if not ex else "flat" if not ey else
                  "fractional" if ey % ex else "integer")
    return kinds


class TestColumnBoundsRanges:
    """``_column_bounds`` steps an edge of integer slope by a ``range`` and
    repeats a flat edge's height; on derandomized polygons, segments and
    points it gives the bounds, and ``lattice_points`` the points, of the
    comprehension that rounded every column."""

    def test_against_the_comprehension(self):
        kinds = set()

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(st.lists(st.tuples(st.integers(-7, 7), st.integers(-7, 7)), min_size=1, max_size=6))
        def compare(points):
            polytope = hull(points)
            want = comprehension_column_bounds(polytope)
            assert list(lattice_module._column_bounds(polytope)) == want
            assert lattice_points(polytope) == [
                (x, y) for x, lo, hi in want for y in range(lo, hi + 1)
            ]
            kinds.update(edge_kinds(polytope))

        compare()
        assert kinds == {"flat", "integer", "fractional", "vertical", "segment", "point"}


class TestMinkowskiSum:
    """The pairwise-hull ``minkowski_sum`` of conftest, which builds every
    Minkowski sum the tests compare against."""

    def test_unit_square_from_segments(self):
        s1 = hull([(0, 0), (1, 0)])
        s2 = hull([(0, 0), (0, 1)])
        assert minkowski_sum(s1, s2) == hull([(0, 0), (1, 0), (1, 1), (0, 1)])

    def test_hexagon_from_three_segments(self):
        s1 = hull([(0, 0), (1, 0)])
        s2 = hull([(0, 0), (0, 1)])
        s3 = hull([(0, 0), (1, 1)])
        assert minkowski_sum(minkowski_sum(s1, s2), s3) == hull(HEXAGON)

    def test_point_is_identity(self):
        p = hull(HEXAGON)
        origin = hull([(0, 0)])
        assert minkowski_sum(p, origin) == p

    def test_commutative_associative(self):
        rng = random.Random(11)
        for _ in range(30):
            polys = [
                hull([(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))])
                for _ in range(rng.randint(2, 4))
            ]
            a, b = polys[0], polys[1]
            assert minkowski_sum(a, b) == minkowski_sum(b, a)
            if len(polys) >= 3:
                c = polys[2]
                assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(a, minkowski_sum(b, c))

    def test_vertices_are_vertex_sums(self):
        rng = random.Random(13)
        for _ in range(30):
            a = hull([(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))])
            b = hull([(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))])
            total = minkowski_sum(a, b)
            sums = {
                tuple(x + y for x, y in zip(u, v))
                for u in a.vertices
                for v in b.vertices
            }
            assert set(total.vertices) <= sums
            assert len(lattice_points(total)) >= max(
                len(lattice_points(a)), len(lattice_points(b))
            )
            assert normal_fan_rays(total).rays == (
                normal_fan_rays(a).rays | normal_fan_rays(b).rays
            )


class TestNormalFan:
    def test_unit_square(self):
        square = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert normal_fan_rays(square).rays == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_hexagon(self):
        rays = normal_fan_rays(hull(HEXAGON))
        assert rays.rays == {(0, -1), (1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0)}

    def test_segment(self):
        assert normal_fan_rays(hull([(0, 0), (1, 1)])).rays == {(1, -1), (-1, 1)}

    def test_point_has_no_rays(self):
        assert not normal_fan_rays(hull([(2, 7)])).rays

    def test_rank_one_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            normal_fan_rays(hull([(0,), (1,)]))


class TestLatticeLength:
    """``lattice_length`` against the fold of ``gcd`` it replaced."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-50, 50), max_size=3))
    def test_against_the_gcd_fold(self, v):
        g = 0
        for x in v:
            g = gcd(g, x)
        assert lattice_length(tuple(v)) == g

    def test_zero_and_empty_vectors(self):
        assert lattice_length(()) == lattice_length((0, 0)) == 0
        assert lattice_length((-4, 6)) == lattice_length((2,)) == 2


class TestUnimodularSimplex:
    def test_standard_basis(self):
        assert is_unimodular_simplex([(1, 0), (0, 1)])

    def test_minor_gcd_two(self):
        assert not is_unimodular_simplex([(1, 0), (1, 2)])

    def test_non_primitive_segment(self):
        assert not is_unimodular_simplex([(2, 0)])

    def test_primitive_segment(self):
        assert is_unimodular_simplex([(3, -2)])
        assert is_unimodular_simplex([(1,)])
        assert not is_unimodular_simplex([(2,)])

    def test_malformed_inputs(self):
        assert not is_unimodular_simplex([])
        assert not is_unimodular_simplex([(1, 0), (0, 1), (1, 1)])
        assert not is_unimodular_simplex([(0, 0)])
        assert not is_unimodular_simplex([(1, 0), (1,)])
        assert not is_unimodular_simplex([(1, "a")])
        assert not is_unimodular_simplex([1])

    def test_ranks_outside_one_and_two_rejected(self):
        assert not is_unimodular_simplex([()])
        assert not is_unimodular_simplex([(1, 0, 0)])
        assert not is_unimodular_simplex([(1, 0, 0), (0, 1, 0)])
        assert not is_unimodular_simplex([(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    @pytest.mark.parametrize("dim, cases", [(1, 399), (2, 120099)])
    def test_matches_the_minor_gcd_on_every_small_list(self, dim, cases):
        # Every list of 1-3 generators with entries in [-3, 3], the zero
        # vector and repeats included.
        vectors = list(product(range(-3, 4), repeat=dim))
        seen = 0
        for k in (1, 2, 3):
            for gens in product(vectors, repeat=k):
                assert is_unimodular_simplex(gens) == unimodular_by_minors(gens), gens
                seen += 1
        assert seen == cases

    @pytest.mark.parametrize("dim", [0, 3, 4])
    def test_simplex_of_unsupported_rank_rejected(self, dim):
        gens = tuple(tuple(int(i == j) for j in range(dim)) for i in range(min(dim, 2)))
        with pytest.raises(UnsupportedDimensionError):
            UnimodularSimplex(dim, gens)


class TestKernelBox:
    """The box a simplex keeps for the wall kernel, computed on first use;
    every box is a rank-2 box, a rank-1 one on the column x = 0."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(unimodular_simplices(1) + unimodular_simplices(2)))
    def test_box_is_the_bounding_box_of_the_vertices(self, simplex):
        fresh = UnimodularSimplex(simplex.dim, simplex.generators)

        def public():
            return (
                fresh == simplex,
                simplex == fresh,
                hash(fresh),
                repr(fresh),
                pickle.dumps(fresh),
                pickle.loads(pickle.dumps(fresh)) == fresh,
                json.dumps(fresh.to_json_dict()),
            )

        before = public()
        low, extent, moved, n = fresh._kernel_box()
        verts = fresh.vertex_set()
        if fresh.dim == 1:  # on the column x = 0 of the rank-2 box
            verts = tuple((0, v[0]) for v in verts)
        axes = list(zip(*verts))
        assert len(low) == len(extent) == 2 and all(len(v) == 2 for v in moved)
        assert low == tuple(map(min, axes))
        assert extent == tuple(max(a) - lo for a, lo in zip(axes, low))
        assert moved == tuple(vec_sub(v, low) for v in verts)
        assert n == 1 + fresh.k
        assert fresh._kernel_box() is fresh._kernel_box()
        assert public() == before
        assert before[:2] == (True, True)


class TestEdgeProfile:
    def test_hexagon_profile(self):
        profile = edge_profile(hull(HEXAGON))
        assert profile == {
            (1, 0): 1, (1, 1): 1, (0, 1): 1,
            (-1, 0): 1, (-1, -1): 1, (0, -1): 1,
        }

    def test_segment_profile_counts_both_directions(self):
        assert edge_profile(hull([(0, 0), (2, 2)])) == {(1, 1): 2, (-1, -1): 2}

    def test_point_profile_empty(self):
        assert edge_profile(hull([(1, 1)])) == {}

    def test_scaled_square(self):
        sq = hull([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert edge_profile(sq) == {(1, 0): 2, (0, 1): 2, (-1, 0): 2, (0, -1): 2}

    @pytest.mark.parametrize("dim, count", [(1, 2), (2, 148)])
    def test_simplex_profile_is_the_profile_of_its_hull(self, dim, count):
        simplices = unimodular_simplices(dim)
        assert len(simplices) == count
        for s in simplices:
            assert s.edge_profile() == edge_profile(hull(s.vertex_set()))


def rank_generic_edge_profile(polytope):
    """``edge_profile`` as it was before it read rank 2 as ``(ex, ey)`` and
    rank 1 in closed form: one edge vector per counterclockwise edge, in any
    rank, divided by the gcd of its entries.  Kept as the oracle."""
    verts = polytope.vertices
    if len(verts) == 1:
        return {}
    profile = {}
    for a, b in zip(verts, verts[1:] + verts[:1]):
        e = [y - x for x, y in zip(a, b)]
        g = gcd(*e)
        profile[tuple(x // g for x in e)] = g
    return profile


def point_sets():
    """Derandomizable point sets: rank-1 sets, rank-2 sets of one to three
    points, segments along a drawn direction, and polygons dilated so that
    their edges are long."""
    coord = st.integers(-30, 30)
    step = st.integers(-4, 4)
    return st.one_of(
        st.lists(st.tuples(coord), min_size=1, max_size=4),
        st.lists(st.tuples(coord, coord), min_size=1, max_size=3),
        st.builds(lambda x, y, dx, dy, n: [(x, y), (x + n * dx, y + n * dy)],
                  coord, coord, step, step, st.integers(1, 40)),
        st.builds(lambda k, pts: [(k * x, k * y) for x, y in pts], st.integers(2, 300),
                  st.lists(st.tuples(step, step), min_size=3, max_size=8)),
    )


def profile_kinds(polytope):
    """What a hull is: rank 1, a point, a horizontal, vertical or diagonal
    segment, a triangle or a polygon, and whether an edge is longer than 1."""
    verts = polytope.vertices
    if polytope.dim == 1:
        return {"rank 1"}
    if len(verts) == 1:
        return {"point"}
    if len(verts) == 2:
        (ax, ay), (bx, by) = verts
        kinds = {"horizontal" if ay == by else "vertical" if ax == bx else "diagonal"}
    else:
        kinds = {"triangle" if len(verts) == 3 else "polygon"}
    if max(rank_generic_edge_profile(polytope).values()) > 1:
        kinds.add("long edge")
    return kinds


class TestEdgeProfileAgainstTheRankGenericWalk:
    """The plain-integer ``edge_profile`` gives the rank-generic walk's dict,
    key order included: the decomposition search walks its directions in
    insertion order, so the order fixes the triangle scan and the nodes."""

    def test_against_the_oracle(self):
        kinds = set()

        @settings(max_examples=600, deadline=None, derandomize=True)
        @given(point_sets())
        def compare(points):
            polytope = hull(points)
            got, want = edge_profile(polytope), rank_generic_edge_profile(polytope)
            assert list(got.items()) == list(want.items())
            kinds.update(profile_kinds(polytope))

        compare()
        assert kinds == {
            "rank 1", "point", "horizontal", "vertical", "diagonal", "triangle", "polygon",
            "long edge",
        }


class TestJson:
    def test_round_trip_any_vertex_order(self):
        data = {"dim": 2, "vertices": [[2, 2], [0, 0], [1, 2], [1, 0], [0, 1], [2, 1]]}
        poly = polytope_from_json_dict(data)
        assert poly == hull(HEXAGON)
        assert polytope_from_json_dict(poly.to_json_dict()) == poly

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            polytope_from_json_dict({"dim": 1, "vertices": [[0, 0], [1, 0]]})
