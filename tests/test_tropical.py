import random
from itertools import combinations

import pytest

from syzkit import (
    MinkowskiDecomposition,
    RaySet,
    UnimodularSimplex,
    UnsupportedDimensionError,
    dual_fan_check,
    enumerate_decompositions,
    hull,
    normal_fan_rays,
    tropical_rays,
    wall_chambers,
)
from syzkit import tropical as tropical_module
from syzkit.lattice import primitive, vec_neg, vec_sub
from conftest import minkowski_sum_all, random_unimodular_simplex, seg, tri, unimodular_simplices


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def corner_locus_rays(summand: UnimodularSimplex) -> RaySet:
    """Rays of the corner locus of min(0, <u_1,x>, ..., <u_k,x>).

    A direction belongs to the locus when at least two of the affine forms
    attain the minimum along it; a segment summand contributes the full line
    perpendicular to its generator.

    The pair search over supporting forms that ``tropical_rays`` replaced,
    kept as its oracle.
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


class TestTropicalRays:
    def test_segment_e1(self):
        assert tropical_rays(seg((1, 0))).rays == {(0, 1), (0, -1)}

    def test_first_triangle(self):
        assert tropical_rays(tri((1, 0), (1, 1))).rays == {(0, 1), (1, -1), (-1, 0)}

    def test_second_triangle(self):
        assert tropical_rays(tri((0, 1), (1, 1))).rays == {(1, 0), (-1, 1), (0, -1)}

    def test_diagonal_segment(self):
        assert tropical_rays(seg((1, 1))).rays == {(1, -1), (-1, 1)}

    def test_rank_one_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            tropical_rays(seg((1,)))

    def test_matches_inner_normal_fan(self):
        # oracle route: the corner locus of the min of the supporting forms is
        # the inner normal fan of the simplex
        rng = random.Random(47)
        for _ in range(40):
            s = random_unimodular_simplex(rng)
            inner = normal_fan_rays(hull(s.vertex_set())).negated()
            assert tropical_rays(s).rays == inner.rays

    def test_matches_corner_locus_on_every_small_simplex(self):
        simplices = unimodular_simplices(2)
        assert len(simplices) == 148
        for s in simplices:
            assert tropical_rays(s) == corner_locus_rays(s)


class TestWallChambers:
    def test_segment_in_plane(self):
        assert wall_chambers(seg((1, 0))) == 2

    def test_triangle(self):
        assert wall_chambers(tri((1, 0), (1, 1))) == 3

    def test_rank_one_segment(self):
        assert wall_chambers(seg((1,))) == 2

    def test_always_k_plus_one(self):
        rng = random.Random(53)
        for _ in range(40):
            s = random_unimodular_simplex(rng)
            assert wall_chambers(s) == s.k + 1


class TestDualFanCheck:
    def test_hexagon_triangles(self, hexagon_triangles):
        assert dual_fan_check(hexagon_triangles)
        union = set()
        for s in hexagon_triangles.summands:
            union |= tropical_rays(s).rays
        assert union == {(0, 1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, -1)}

    def test_hexagon_segments(self, hexagon_segments):
        assert dual_fan_check(hexagon_segments)

    def test_conifold(self, conifold):
        assert dual_fan_check(conifold)
        union = set()
        for s in conifold.summands:
            union |= tropical_rays(s).rays
        assert union == normal_fan_rays(conifold.polytope).rays

    def test_summand_rays_within_polytope_fan(
        self, conifold, hexagon_segments, hexagon_triangles
    ):
        # on these fixtures the ray sets are centrally symmetric, so each
        # wall's rays sit inside the polytope's own ray set
        for dec in (conifold, hexagon_segments, hexagon_triangles):
            fan = normal_fan_rays(dec.polytope)
            for s in dec.summands:
                assert tropical_rays(s).rays <= fan.rays

    def test_rank_one_rejected(self):
        segment = MinkowskiDecomposition(hull([(0,), (2,)]), (0,), (seg((1,)), seg((1,))))
        with pytest.raises(UnsupportedDimensionError):
            dual_fan_check(segment)

    def test_random_decompositions(self):
        rng = random.Random(59)
        for _ in range(60):
            parts = [random_unimodular_simplex(rng) for _ in range(rng.randint(1, 4))]
            p = minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2)
            dec = MinkowskiDecomposition(p, (0, 0), tuple(parts))
            assert dual_fan_check(dec)
            inner = normal_fan_rays(p).negated()
            for s in dec.summands:
                assert tropical_rays(s).rays <= inner.rays

    def test_every_enumerated_decomposition(self, hexagon, unit_square):
        for poly in (hexagon, unit_square, hull([(0, 0), (2, 0), (2, 2), (0, 2)])):
            for dec in enumerate_decompositions(poly):
                assert dual_fan_check(dec)

    def test_rays_once_per_distinct_type(self, monkeypatch):
        """A 2000-step diagonal segment has one summand type, so one
        ``tropical_rays`` call."""
        calls = []
        real = tropical_module.tropical_rays

        def counted(summand):
            calls.append(summand)
            return real(summand)

        monkeypatch.setattr(tropical_module, "tropical_rays", counted)
        diagonal = MinkowskiDecomposition(
            hull([(0, 0), (2000, 2000)]), (0, 0), (seg((1, 1)),) * 2000
        )
        assert dual_fan_check(diagonal) is True
        assert calls == [seg((1, 1))]
