import json
import math
import operator
import random
import re
import subprocess
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, combinations, product
from struct import Struct

import pytest
from hypothesis import given, settings, strategies as st

from syzkit import (
    Character,
    DiscClass,
    GWTable,
    LaurentPolynomial,
    MinkowskiDecomposition,
    OutputTooLargeError,
    SECTOR_D0,
    SECTOR_DINF,
    SECTOR_NONE,
    SearchBudgetExceededError,
    ShapeMismatchError,
    UnimodularSimplex,
    VerificationFailedError,
    apply_character,
    chamber_uv,
    disc_potential,
    enumerate_decompositions,
    enumerate_gw_classes,
    gw_invariant,
    hull,
    lattice_points,
    match_transition,
    syz_mirror,
    wall_factor,
)
from syzkit import gw as gw_module
from syzkit import mirror as mirror_module
from syzkit import transition as transition_module
from syzkit.cli import main
from syzkit.lattice import _column_bounds
from parametric import lift
import kernel_faults
from conftest import (
    HEXAGON_CORNERS,
    ZONOTOPE_DIRECTIONS,
    ap_decomposition,
    minkowski_sum_all,
    packed_bytes,
    random_unimodular_simplex,
    recorded_runs,
    seg,
    sum_decomposition,
    tri,
    zonotope,
)


def rational_dict(poly):
    return {e: int(c) for e, c in poly.terms.items()}


def oracle_product(dim, summands):
    """The wall-factor product as a schoolbook fold of LaurentPolynomial.__mul__."""
    g = LaurentPolynomial(dim, {(0,) * dim: 1})
    for s in summands:
        g = g * wall_factor(s)
    return g


def kernel(dim, summands, lead=()):
    """The terms of ``mirror._wall_slots`` on the parts ``(box, count)`` of a summand list."""
    axes, slots = mirror_module._wall_slots(dim, kernel_parts(Counter(summands).items()))
    return mirror_module._slot_terms(axes, slots, lead)


def kernel_parts(runs):
    """The kernel's parts ``(box, count)`` of runs ``(summand, count)``."""
    return [(s._kernel_box(), m) for s, m in runs]


def mixed_radix_wall_product(dim, summands):
    """The wall-factor kernel with its generic mixed-radix decoder, which
    builds each exponent coordinate by coordinate from the slot index; the
    row-by-row decoder of ``mirror._wall_slots`` replaced it."""
    runs = Counter(summands)
    offset = [0] * dim
    radix = [1] * dim
    shifted = []
    for s, m in runs.items():
        exps = ((0,) * dim,) + s.generators
        low = [min(e[j] for e in exps) for j in range(dim)]
        for j in range(dim):
            offset[j] += m * low[j]
            radix[j] += m * (max(e[j] for e in exps) - low[j])
        shifted.append(([[x - t for x, t in zip(e, low)] for e in exps], m))
    stride = [1] * dim
    for j in range(dim - 2, -1, -1):
        stride[j] = stride[j + 1] * radix[j + 1]
    bound = math.prod((1 + s.k) ** m for s, m in runs.items())
    width = mirror_module._slot_bytes(bound)
    bits = 8 * width
    packed = math.prod(
        sum(1 << (bits * sum(x * t for x, t in zip(e, stride))) for e in exps) ** m
        for exps, m in shifted
    )
    raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    slots = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    assert sum(slots) == bound
    return {
        tuple(m + index // t % r for m, t, r in zip(offset, stride, radix)): n
        for index, n in enumerate(slots)
        if n
    }


def type_list_wall_slots(dim, runs):
    """The wall kernel as it was before it packed from boxes: for each run
    ``(summand, count)`` a list of slot indices, each packed by its own
    comprehension and raised to its count.  Kept as the oracle of packing
    each box's moved vertices with the row stride ``xs``."""
    if dim == 1:  # 1 + z^u fills both slots of its box
        low = steps = 0
        for s, m in runs:
            low, steps = low + m * min(s.vertex_set())[0], steps + m
        bound, axes = 1 << steps, (range(low, low + 1 + steps),)
        types = [((0, 1), m) for _, m in runs]
    else:
        boxes = [(s._kernel_box(), m) for s, m in runs]
        ox, oy, rx, ry, bound = 0, 0, 1, 1, 1
        for ((lx, ly), (ex, ey), _, size), m in boxes:
            ox, oy, rx, ry = ox + m * lx, oy + m * ly, rx + m * ex, ry + m * ey
            bound *= size**m
        axes = (range(ox, ox + rx), range(oy, oy + ry))
        types = [([x * ry + y for x, y in box[2]], m) for box, m in boxes]
    width = mirror_module._slot_bytes(bound)
    bits = 8 * width
    packed = math.prod(sum(1 << bits * i for i in indices) ** m for indices, m in types)
    raw = packed.to_bytes(math.prod(map(len, axes)) * width, "little")
    slots = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    assert sum(slots) == bound
    return axes, slots


def run_split_chamber_uv(dec, chamber):
    """The terms of both halves of ``chamber_uv`` as it was before one walk
    of the runs: the run list sliced at the cut, a cut inside a run patched
    onto both sides, and each half through ``type_list_wall_slots`` and
    ``_slot_terms``.  Kept as the oracle of the walk."""
    cut, runs = chamber + 1, dec._runs
    i = 0
    while i < len(runs) and cut >= runs[i][1]:
        cut -= runs[i][1]
        i += 1
    below, above = runs[:i], runs[i:]
    if cut:  # a cut inside a run splits it
        s, m = above[0]
        below.append((s, cut))
        above[0] = (s, m - cut)
    d = dec.polytope.dim
    return tuple(
        mirror_module._slot_terms(*type_list_wall_slots(d, half), lead)
        for half, lead in ((below, (1,)), (above, (-1,)))
    )


def _box_simplices():
    """Every unimodular segment and triangle with generators in [-2, 2]^2,
    rooted at the origin but not at a lexicographic minimum."""
    box = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
    out = [UnimodularSimplex(2, (u,)) for u in box if math.gcd(*u) == 1]
    out += [
        UnimodularSimplex(2, (u, v))
        for u, v in combinations(box, 2)
        if abs(u[0] * v[1] - u[1] * v[0]) == 1
    ]
    return out


BOX_SIMPLICES = _box_simplices()


def dilated_triangle(m):
    """m copies of the standard triangle, whose product g(1, 1) is 3^m."""
    corners = [(0, 0), (m, 0), (0, m)]
    return MinkowskiDecomposition(hull(corners), (0, 0), (tri((1, 0), (0, 1)),) * m)


def mirror_corpus():
    """The decompositions of the benchmark's mirror workload: A_p for p a
    power of two up to 128, every decomposition of Z(4,3), Z(5,2) and the
    hexagon, and five random sums of up to four simplices."""
    decs = [ap_decomposition(2**i) for i in range(8)]
    for polytope in (zonotope(4, 3), zonotope(5, 2), hull(HEXAGON_CORNERS)):
        decs += enumerate_decompositions(polytope)
    rng = random.Random(7)
    for _ in range(5):
        parts = tuple(random_unimodular_simplex(rng) for _ in range(rng.randint(1, 4)))
        polytope = minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2)
        decs.append(MinkowskiDecomposition(polytope, (0, 0), parts))
    return decs


# Decompositions on both sides of one-byte slots, with the slot width of g:
# g(1, ..., 1) is 64 and 128 for A_5 and A_6, 81 and 243 for 4 and 5 triangles.
SLOT_WIDTH_BOUNDARY = [
    (ap_decomposition(5), 1),
    (ap_decomposition(6), 2),
    (dilated_triangle(4), 1),
    (dilated_triangle(5), 2),
]
SLOT_WIDTH_IDS = ["A_5", "A_6", "4 triangles", "5 triangles"]


def brute_invariant(sector, rows, chamber):
    # admissibility restated from scratch: unit entries, at most one per wall,
    # and only walls on the class's side of the chamber
    for i, row in enumerate(rows):
        if any(x not in (0, 1) for x in row):
            return 0
        if sum(row) > 1:
            return 0
        if any(row):
            if sector == SECTOR_D0 and i > chamber:
                return 0
            if sector == SECTOR_DINF and i <= chamber:
                return 0
    return 1


class TestWallFactor:
    def test_segment_e1(self):
        assert rational_dict(wall_factor(seg((1, 0)))) == {(0, 0): 1, (1, 0): 1}

    def test_triangle(self):
        assert rational_dict(wall_factor(tri((1, 0), (1, 1)))) == {
            (0, 0): 1, (1, 0): 1, (1, 1): 1,
        }

    def test_segment_e2(self):
        assert rational_dict(wall_factor(seg((0, 1)))) == {(0, 0): 1, (0, 1): 1}


class TestSyzMirror:
    @pytest.mark.parametrize("p", range(1, 11))
    def test_ap_binomials(self, p):
        mirror = syz_mirror(ap_decomposition(p))
        assert rational_dict(mirror.expanded) == {
            (k,): math.comb(p + 1, k) for k in range(p + 2)
        }

    def test_conifold(self, conifold):
        mirror = syz_mirror(conifold)
        assert rational_dict(mirror.expanded) == {
            (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1,
        }

    def test_hexagon_coefficients(self, hexagon_segments, hexagon_triangles):
        assert syz_mirror(hexagon_segments).table[(1, 1)] == 2
        assert syz_mirror(hexagon_triangles).table[(1, 1)] == 3

    def test_factored_matches_summands(self, hexagon_triangles):
        mirror = syz_mirror(hexagon_triangles)
        assert len(mirror.factored) == 2
        prod_poly = LaurentPolynomial(2, {(0, 0): 1})
        for f in mirror.factored:
            prod_poly = prod_poly * f
        assert prod_poly == mirror.expanded

    def test_newton_polytope_is_the_polytope(self, hexagon_segments):
        mirror = syz_mirror(hexagon_segments)
        assert hull(mirror.expanded.support()) == hexagon_segments.polytope

    def test_table_properties_on_fixtures(
        self, hexagon_segments, hexagon_triangles, conifold
    ):
        for dec in (hexagon_segments, hexagon_triangles, conifold, ap_decomposition(3)):
            mirror = syz_mirror(dec)
            for v in dec.polytope.vertices:
                assert mirror.table[v] == 1
            expected = 1
            for k in dec.ks:
                expected *= 1 + k
            assert mirror.table.total() == expected
            # these fixtures cover every lattice point
            assert mirror.table.points() == lattice_points(dec.polytope)

    def test_expansion_independent_of_summand_order(self, hexagon):
        a = MinkowskiDecomposition(hexagon, (0, 0), (seg((1, 1)), seg((1, 0)), seg((0, 1))))
        b = MinkowskiDecomposition(hexagon, (0, 0), (seg((0, 1)), seg((1, 1)), seg((1, 0))))
        assert syz_mirror(a).expanded == syz_mirror(b).expanded

    def test_interior_coefficient_can_vanish(self):
        # the two antidiagonal segments cover only the vertex sums, so the
        # interior point (1, 0) of the rotated square carries coefficient 0;
        # the table simply omits it
        rotated = hull([(0, 0), (1, 1), (2, 0), (1, -1)])
        dec = MinkowskiDecomposition(
            rotated, (0, 0), (seg((1, 1)), seg((1, -1)))
        )
        mirror = syz_mirror(dec)
        assert (1, 0) in lattice_points(rotated)
        assert mirror.table.count((1, 0)) == 0
        assert mirror.table.total() == 4

    def test_random_decompositions_vertices_and_newton(self):
        rng = random.Random(43)
        for _ in range(30):
            parts = [random_unimodular_simplex(rng) for _ in range(rng.randint(1, 4))]
            p = minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2)
            dec = MinkowskiDecomposition(p, (0, 0), tuple(parts))
            mirror = syz_mirror(dec)
            assert hull(mirror.expanded.support()) == p
            for v in p.vertices:
                assert mirror.table[v] == 1
            assert all(n >= 1 for n in mirror.table.entries.values())


class TestDiscPotential:
    def test_conifold(self, conifold):
        got = rational_dict(disc_potential(conifold))
        assert got == {(1, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1, (1, 1, 1): 1}

    def test_a1(self, a1):
        assert rational_dict(disc_potential(a1)) == {(1, 0): 1, (1, 1): 2, (1, 2): 1}

    def test_vertex_terms_have_coefficient_one(self, hexagon_triangles):
        w = disc_potential(hexagon_triangles)
        for v in hexagon_triangles.polytope.vertices:
            assert w.coefficient((1,) + v) == 1


class TestDiscClass:
    def test_maslov_index_by_sector(self):
        assert DiscClass(SECTOR_D0, ((0,),)).maslov_index == 2
        assert DiscClass(SECTOR_DINF, ((1,),)).maslov_index == 2
        assert DiscClass(SECTOR_NONE, ((1,),)).maslov_index == 0

    def test_negative_multiplicities_rejected(self):
        with pytest.raises(ValueError):
            DiscClass(SECTOR_D0, ((-1,),))

    def test_unknown_sector_rejected(self):
        with pytest.raises(ValueError):
            DiscClass("D1", ((0,),))


# Decompositions whose runs have counts above one, so that a chamber's cut
# falls inside a run: the zonotopes Z(3,3) and Z(4,2), and A_4.
MULTI_RUN = [
    dec
    for polytope in (zonotope(3, 3), zonotope(4, 2), hull([(0,), (5,)]))
    for dec in enumerate_decompositions(polytope)
]


def expanded_classes(ks, chamber, sector):
    """The classes with invariant 1, listed from the expanded summand sizes
    ``ks``: the listing that walking the runs replaced, kept as its oracle."""
    cut = chamber + 1
    near = [[(0,) * k, *(tuple(int(j == t) for j in range(k)) for t in range(k))] for k in ks]
    far = [[(0,) * k] for k in ks]
    options = near[:cut] + far[cut:] if sector == SECTOR_D0 else far[:cut] + near[cut:]
    return [DiscClass(sector, combo) for combo in product(*options)]


class TestGwInvariant:
    def test_empty_table_counts_one(self, hexagon_segments):
        beta = DiscClass(SECTOR_D0, ((0,), (0,), (0,)))
        for chamber in range(-1, hexagon_segments.p + 1):
            assert gw_invariant(hexagon_segments, chamber, beta) == 1

    def test_double_multiplicity_killed(self, hexagon_segments):
        beta = DiscClass(SECTOR_D0, ((2,), (0,), (0,)))
        assert gw_invariant(hexagon_segments, hexagon_segments.p, beta) == 0

    def test_wall_above_fiber_killed(self, hexagon_segments):
        beta = DiscClass(SECTOR_D0, ((0,), (1,), (0,)))
        assert gw_invariant(hexagon_segments, 0, beta) == 0
        assert gw_invariant(hexagon_segments, 1, beta) == 1

    def test_dinf_supported_above_fiber(self, conifold):
        beta = DiscClass(SECTOR_DINF, ((0,), (1,)))
        assert gw_invariant(conifold, 0, beta) == 1
        assert gw_invariant(conifold, 1, beta) == 0

    def test_two_walls_touched_at_most_once_each(self, hexagon_triangles):
        beta = DiscClass(SECTOR_D0, ((1, 0), (0, 1)))
        assert gw_invariant(hexagon_triangles, 1, beta) == 1
        beta_bad = DiscClass(SECTOR_D0, ((1, 1), (0, 0)))
        assert gw_invariant(hexagon_triangles, 1, beta_bad) == 0

    def test_maslov_zero_warns_and_returns_zero(self, conifold):
        beta = DiscClass(SECTOR_NONE, ((1,), (0,)))
        with pytest.warns(UserWarning):
            assert gw_invariant(conifold, 0, beta) == 0

    def test_shape_mismatch(self, conifold):
        with pytest.raises(ShapeMismatchError):
            gw_invariant(conifold, 0, DiscClass(SECTOR_D0, ((0,),)))
        with pytest.raises(ShapeMismatchError):
            gw_invariant(conifold, 0, DiscClass(SECTOR_D0, ((0, 0), (0,))))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(MULTI_RUN), st.data())
    def test_shape_check_reads_the_runs_as_the_expanded_sizes(self, dec, data):
        """The row lengths are compared run by run; a table is refused exactly
        when its row lengths differ from the expanded sizes ``ks``."""
        ks = [s.k for s in dec.summands]
        lengths = data.draw(st.one_of(
            st.just(ks),
            st.permutations(ks),
            st.lists(st.integers(0, 3), max_size=len(ks) + 2),
            st.integers(0, len(ks) - 1).map(lambda i: ks[:i] + [3 - ks[i]] + ks[i + 1:]),
            st.integers(0, len(ks)).map(lambda i: ks[:i] + ks[i + 1:]),
            st.integers(0, len(ks)).map(lambda i: ks[:i] + [1] + ks[i:]),
        ))
        beta = DiscClass(SECTOR_D0, tuple((0,) * n for n in lengths))
        if lengths == ks:
            assert gw_invariant(dec, dec.p, beta) == 1
        else:
            with pytest.raises(ShapeMismatchError):
                gw_invariant(dec, dec.p, beta)

    def test_chamber_range(self, conifold):
        beta = DiscClass(SECTOR_D0, ((0,), (0,)))
        with pytest.raises(ValueError):
            gw_invariant(conifold, 2, beta)
        with pytest.raises(ValueError):
            gw_invariant(conifold, -2, beta)
        for chamber in (2, -2):
            with pytest.raises(ValueError):
                chamber_uv(conifold, chamber)

    @pytest.mark.parametrize(
        "chamber", [True, 0.0, Fraction(1), "1"], ids=["bool", "float", "Fraction", "string"]
    )
    def test_chamber_must_be_an_int(self, conifold, chamber):
        """One check in ``minkowski._cut`` serves every function that takes a chamber."""
        beta = DiscClass(SECTOR_D0, ((0,), (0,)))
        for call in (
            lambda: chamber_uv(conifold, chamber),
            lambda: gw_invariant(conifold, chamber, beta),
            lambda: enumerate_gw_classes(conifold, chamber, SECTOR_D0),
        ):
            with pytest.raises(TypeError, match="expected an integer"):
                call()


class TestEnumerateClasses:
    def test_hexagon_segments_top_chamber(self, hexagon_segments):
        classes = enumerate_gw_classes(hexagon_segments, 2, SECTOR_D0)
        assert len(classes) == 8

    def test_bottom_chamber_only_the_basic_class(self, hexagon_segments):
        classes = enumerate_gw_classes(hexagon_segments, -1, SECTOR_D0)
        assert classes == [DiscClass(SECTOR_D0, ((0,), (0,), (0,)))]

    def test_sector_none_has_no_classes_to_list(self, conifold):
        with pytest.raises(ValueError, match="sector must be"):
            enumerate_gw_classes(conifold, 0, SECTOR_NONE)

    def test_conifold_middle_chamber(self, conifold):
        assert len(enumerate_gw_classes(conifold, 0, SECTOR_D0)) == 2
        assert len(enumerate_gw_classes(conifold, 0, SECTOR_DINF)) == 2

    def test_counts_match_product_formula(self, hexagon_triangles):
        dec = hexagon_triangles
        for chamber in range(-1, dec.p + 1):
            low = enumerate_gw_classes(dec, chamber, SECTOR_D0)
            high = enumerate_gw_classes(dec, chamber, SECTOR_DINF)
            expected_low = 1
            expected_high = 1
            for i, k in enumerate(dec.ks):
                if i <= chamber:
                    expected_low *= 1 + k
                else:
                    expected_high *= 1 + k
            assert len(low) == expected_low
            assert len(high) == expected_high

    def test_runs_split_at_every_chamber_as_the_expanded_walls(self):
        """The listing and the count from the runs against the listing from
        the expanded sizes, at every chamber and in both sectors."""
        for dec in MULTI_RUN:
            ks = tuple(s.k for s in dec.summands)
            for chamber, sector in product(range(-1, dec.p + 1), (SECTOR_D0, SECTOR_DINF)):
                want = expanded_classes(ks, chamber, sector)
                assert enumerate_gw_classes(dec, chamber, sector) == want
                assert gw_module._class_count(dec, chamber, sector) == len(want)

    def test_equals_exhaustive_invariant_scan(
        self, conifold, hexagon_segments, hexagon_triangles
    ):
        for dec in (conifold, hexagon_segments, hexagon_triangles):
            shapes = [range(3)] * sum(dec.ks)
            for chamber in range(-1, dec.p + 1):
                for sector in (SECTOR_D0, SECTOR_DINF):
                    keep = set(enumerate_gw_classes(dec, chamber, sector))
                    for flat in product(*shapes):
                        rows = []
                        pos = 0
                        for k in dec.ks:
                            rows.append(flat[pos:pos + k])
                            pos += k
                        beta = DiscClass(sector, tuple(rows))
                        got = gw_invariant(dec, chamber, beta)
                        assert got == brute_invariant(sector, beta.multiplicities, chamber)
                        assert got == (1 if beta in keep else 0)


class TestChamberUV:
    def test_bottom_chamber(self, conifold):
        u, v = chamber_uv(conifold, -1)
        assert rational_dict(u) == {(1, 0, 0): 1}
        g = syz_mirror(conifold).expanded
        assert v == g.prepend_variable(-1)

    def test_top_chamber(self, conifold):
        u, v = chamber_uv(conifold, conifold.p)
        g = syz_mirror(conifold).expanded
        assert u == g.prepend_variable(1)
        assert rational_dict(v) == {(-1, 0, 0): 1}

    def test_conifold_middle(self, conifold):
        u, v = chamber_uv(conifold, 0)
        assert rational_dict(u) == {(1, 0, 0): 1, (1, 1, 0): 1}
        assert rational_dict(v) == {(-1, 0, 0): 1, (-1, 0, 1): 1}
        assert u * v == syz_mirror(conifold).expanded.prepend_variable(0)

    def test_product_identity_everywhere(
        self, conifold, hexagon_segments, hexagon_triangles
    ):
        for dec in (conifold, hexagon_segments, hexagon_triangles, ap_decomposition(4)):
            g = syz_mirror(dec).expanded.prepend_variable(0)
            for chamber in range(-1, dec.p + 1):
                u, v = chamber_uv(dec, chamber)
                assert u * v == g

    @pytest.mark.parametrize("dec", mirror_corpus())
    def test_halves_count_the_classes_of_their_sector(self, dec):
        """u at z = 1 is the number of D0 classes with invariant 1, and v the
        number of Dinf ones: both sides of one cut."""
        for chamber in range(-1, dec.p + 1):
            u, v = chamber_uv(dec, chamber)
            assert sum(u.terms.values()) == gw_module._class_count(dec, chamber, SECTOR_D0)
            assert sum(v.terms.values()) == gw_module._class_count(dec, chamber, SECTOR_DINF)


class TestChamberWalk:
    """``chamber_uv`` splits the runs at the cut in one walk and packs each
    half from its boxes: at every chamber, both halves have the terms of the
    run-split oracle, in the same key order."""

    @staticmethod
    def assert_walk(dec):
        """Compare every chamber; return how many cuts fell inside a run."""
        for chamber in range(-1, dec.p + 1):
            got = chamber_uv(dec, chamber)
            for poly, terms in zip(got, run_split_chamber_uv(dec, chamber)):
                assert list(poly.terms.items()) == list(terms.items())
                assert_integral(poly)
        ends = set(accumulate(m for _, m in dec._runs))
        return len(set(range(1, dec.p + 1)) - ends)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 40))
    def test_rank_one(self, p):
        """A_p is one run of p + 1 steps: every cut but the two ends is inside it."""
        assert self.assert_walk(ap_decomposition(p)) == p

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(BOX_SIMPLICES), st.integers(1, 4)), max_size=4))
    def test_rank_two(self, runs):
        self.assert_walk(sum_decomposition([s for s, m in runs for _ in range(m)]))

    def test_corpus(self):
        """The mirror corpus and the decoder cases, at every slot width: they
        hold cuts inside runs and runs of count 1."""
        inside = single = 0
        for dec in [*mirror_corpus(), *DECODER_CASES.values()]:
            inside += self.assert_walk(dec)
            single += sum(m == 1 for _, m in dec._runs)
        assert inside and single


class TestWallProductKernel:
    """The packed-integer kernel against the schoolbook fold it replaced."""

    @pytest.mark.parametrize("p", [0, *range(1, 51), 200, 255, 300])
    def test_ap_matches_fold(self, p):
        dec = ap_decomposition(p)
        mirror = syz_mirror(dec)
        assert mirror.expanded == oracle_product(1, dec.summands)
        assert sum(mirror.expanded.terms.values()) == 2 ** (p + 1)

    @pytest.mark.parametrize(
        "polytope", [hull(HEXAGON_CORNERS), zonotope(4, 5)], ids=["hexagon", "Z(4,5)"]
    )
    def test_every_decomposition_matches_fold(self, polytope):
        decompositions = enumerate_decompositions(polytope)
        assert decompositions
        for dec in decompositions:
            g = oracle_product(2, dec.summands)
            mirror = syz_mirror(dec)
            assert mirror.expanded == g
            assert mirror.table.total() == math.prod(1 + k for k in dec.ks)
            assert disc_potential(dec) == g.prepend_variable(1)
            below = LaurentPolynomial(2, {(0, 0): 1})
            for chamber in range(-1, dec.p + 1):
                if chamber >= 0:
                    below = below * wall_factor(dec.summands[chamber])
                u, v = chamber_uv(dec, chamber)
                assert u == below.prepend_variable(1)
                assert u * v == g.prepend_variable(0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(BOX_SIMPLICES), max_size=6))
    def test_random_sums_match_fold(self, parts):
        got = kernel(2, parts)
        want = oracle_product(2, parts)
        assert LaurentPolynomial(2, got) == want
        assert list(got) == sorted(got)
        assert sum(got.values()) == math.prod(1 + s.k for s in parts)
        dec = sum_decomposition(parts)
        g = syz_mirror(dec).expanded
        assert g == oracle_product(2, dec.summands)
        for chamber in range(-1, dec.p + 1):
            u, v = chamber_uv(dec, chamber)
            assert u * v == g.prepend_variable(0)

    def test_no_summands_is_one(self):
        assert kernel(2, ()) == {(0, 0): 1}

    @pytest.mark.parametrize("vertices", [[(3, 4)], [(-2,)]], ids=["rank 2", "rank 1"])
    def test_point_has_g_one(self, vertices):
        (dec,) = enumerate_decompositions(hull(vertices))
        assert dec.summands == ()
        one = LaurentPolynomial(dec.polytope.dim, {(0,) * dec.polytope.dim: 1})
        assert syz_mirror(dec).expanded == one == oracle_product(dec.polytope.dim, ())
        assert syz_mirror(dec).table.entries == {(0,) * dec.polytope.dim: 1}
        u, v = chamber_uv(dec, -1)
        assert u == one.prepend_variable(1)
        assert v == one.prepend_variable(-1)

    def test_odd_numbers_of_distinct_repeated_factors(self):
        """Runs of repeated factors with an odd count of distinct types."""
        seen = set()
        for polytope in (zonotope(5, 2), zonotope(3, 3), hull([(0, 0), (4, 4)])):
            for dec in enumerate_decompositions(polytope):
                distinct = len(set(dec.summands))
                if distinct % 2 and len(dec.summands) > distinct:
                    seen.add(distinct)
                    got = kernel(2, dec.summands)
                    assert LaurentPolynomial(2, got) == oracle_product(2, dec.summands)
        assert seen == {1, 3, 5, 7}

    @pytest.mark.parametrize(
        "dec",
        [
            ap_decomposition(0),
            ap_decomposition(7),
            *enumerate_decompositions(hull(HEXAGON_CORNERS)),
            *enumerate_decompositions(zonotope(4, 3)),
        ],
    )
    def test_empty_side_of_a_chamber(self, dec):
        """Below the lowest wall u is z0 alone, above the highest v is 1/z0."""
        d = dec.polytope.dim
        one = LaurentPolynomial(d, {(0,) * d: 1})
        g = oracle_product(d, dec.summands)
        assert chamber_uv(dec, -1) == (one.prepend_variable(1), g.prepend_variable(-1))
        assert chamber_uv(dec, dec.p) == (g.prepend_variable(1), one.prepend_variable(-1))


class TestRowDecoder:
    """The wall kernel against the generic mixed-radix decoder it replaced:
    equal dicts with their keys in the same lexicographic order."""

    RANK1_STEPS = (UnimodularSimplex(1, ((1,),)), UnimodularSimplex(1, ((-1,),)))
    DECOMPOSITIONS = [
        ap_decomposition(0),
        ap_decomposition(9),
        *enumerate_decompositions(hull(HEXAGON_CORNERS)),
        *enumerate_decompositions(zonotope(4, 3)),
        *enumerate_decompositions(zonotope(5, 2)),
    ]

    @staticmethod
    def assert_same(dim, summands):
        got = kernel(dim, summands)
        want = mixed_radix_wall_product(dim, summands)
        assert list(got.items()) == list(want.items())
        assert list(got) == sorted(got)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(RANK1_STEPS), max_size=300))
    def test_rank_one(self, parts):
        self.assert_same(1, parts)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(BOX_SIMPLICES), max_size=10))
    def test_rank_two(self, parts):
        self.assert_same(2, parts)

    @pytest.mark.parametrize("m, n", [(4, 40), (8, 10)], ids=["Z(4,40)", "Z(8,10)"])
    def test_many_steps_and_many_types(self, m, n):
        """Z(m, n) as m * n unit segments: 160 steps of four types, and eight
        types of ten steps each."""
        self.assert_same(2, [seg(d) for d in ZONOTOPE_DIRECTIONS[:m] for _ in range(n)])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_product(self, dim):
        self.assert_same(dim, ())
        assert kernel(dim, ()) == {(0,) * dim: 1}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(DECOMPOSITIONS), st.data())
    def test_both_sides_of_every_chamber(self, dec, data):
        """Chambers -1 and p leave one side an empty product."""
        chamber = data.draw(st.integers(-1, dec.p))
        self.assert_same(dec.polytope.dim, dec.summands[: chamber + 1])
        self.assert_same(dec.polytope.dim, dec.summands[chamber + 1 :])

    @staticmethod
    def assert_halves(dec, chamber):
        """Both halves of ``chamber_uv`` are the oracle's terms with z0^(+-1)
        prepended, as ints, with their keys in the same order."""
        d = dec.polytope.dim
        halves = (dec.summands[: chamber + 1], dec.summands[chamber + 1 :])
        for poly, lead, part in zip(chamber_uv(dec, chamber), ((1,), (-1,)), halves):
            want = {lead + e: n for e, n in mixed_radix_wall_product(d, part).items()}
            assert list(poly.terms.items()) == list(want.items())
            assert_integral(poly)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(DECOMPOSITIONS), st.data())
    def test_chamber_halves_carry_their_lead(self, dec, data):
        self.assert_halves(dec, data.draw(st.integers(-1, dec.p)))

    @pytest.mark.parametrize("dec", DECOMPOSITIONS)
    def test_halves_are_the_generating_functions_of_their_classes(self, dec):
        """Exponent by exponent, u (v) counts the D0 (Dinf) classes with
        invariant 1 by their boundary sum_i sum_j n^i_j u^i_j, where u^i_j is
        the j-th generator of wall i: the listing in ``gw`` is combinatorics
        alone, and the kernel's integer coefficients must agree with it."""
        generators = [s.generators for s in dec.summands]
        sides = ((1, SECTOR_D0), (-1, SECTOR_DINF))
        for chamber in range(-1, dec.p + 1):
            for half, (lead, sector) in zip(chamber_uv(dec, chamber), sides):
                boundaries = Counter()
                for beta in enumerate_gw_classes(dec, chamber, sector):
                    boundary = [0] * dec.polytope.dim
                    for row, us in zip(beta.multiplicities, generators):
                        for n, u in zip(row, us):
                            boundary = [b + n * x for b, x in zip(boundary, u)]
                    boundaries[tuple(boundary)] += 1
                assert {e[0] for e in half.terms} == {lead}
                assert dict(boundaries) == {e[1:]: c for e, c in half.terms.items()}

    @pytest.mark.parametrize("dec, width", SLOT_WIDTH_BOUNDARY, ids=SLOT_WIDTH_IDS)
    def test_both_sides_of_one_byte_slots(self, dec, width):
        assert mirror_module._slot_bytes(math.prod(1 + k for k in dec.ks)) == width
        d = dec.polytope.dim
        expanded = syz_mirror(dec).expanded
        want = mixed_radix_wall_product(d, dec.summands)
        assert list(expanded.terms.items()) == list(want.items())
        assert_integral(expanded)
        for chamber in range(-1, dec.p + 1):
            self.assert_halves(dec, chamber)


# A_p and m dilated triangles on both sides of each slot-width change up to
# nine bytes: g(1, ..., 1) is 2^(p + 1) and 3^m.
DECODER_CASES = {
    **{f"A_{p}": ap_decomposition(p) for p in (5, 6, 13, 14, 21, 22, 29, 30, 37, 38)},
    **{f"A_{p}": ap_decomposition(p) for p in (53, 54, 61, 62)},
    **{f"{m} triangles": dilated_triangle(m) for m in (4, 5, 9, 10, 14, 15, 19, 20)},
    **{f"{m} triangles": dilated_triangle(m) for m in (34, 35, 39, 40)},
}


class TestSlotDecoders:
    """Every way the kernel reads its slots against the mixed-radix oracle:
    one-byte slots as ``bytes``, ``array`` at 2, 4 and 8 bytes, and
    ``int.from_bytes`` at 3, 5 to 7 and 9 bytes; on g and on both halves of
    every chamber."""

    def test_cases_cover_every_width(self):
        bounds = [math.prod(1 + k for k in dec.ks) for dec in DECODER_CASES.values()]
        assert sorted(set(map(mirror_module._slot_bytes, bounds))) == list(range(1, 10))

    @pytest.mark.parametrize("name", list(DECODER_CASES))
    def test_matches_the_oracle(self, name):
        dec = DECODER_CASES[name]
        d = dec.polytope.dim
        got = kernel(d, dec.summands)
        assert list(got.items()) == list(mixed_radix_wall_product(d, dec.summands).items())
        assert all(type(c) is int for c in got.values())
        for chamber in range(-1, dec.p + 1):
            TestRowDecoder.assert_halves(dec, chamber)

    @pytest.mark.parametrize("name", list(DECODER_CASES))
    def test_builds_no_fraction(self, monkeypatch, name):
        """The kernel emits the ints it reads: no ``Fraction`` is made by
        ``_wall_slots``, ``syz_mirror`` or ``chamber_uv``, at any slot width."""
        dec = DECODER_CASES[name]
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        Fraction(1)
        assert built == [(1,)]
        built.clear()
        kernel(dec.polytope.dim, dec.summands)
        syz_mirror(dec)
        for chamber in range(-1, dec.p + 1):
            chamber_uv(dec, chamber)
        assert built == []


def assert_canonical(poly):
    """The invariants the public constructor establishes hold for ``poly``."""
    assert type(poly.dim) is int
    assert poly == LaurentPolynomial(poly.dim, poly.terms)
    for e, c in poly.terms.items():
        assert type(e) is tuple and len(e) == poly.dim
        assert all(type(x) is int for x in e)
        assert c != 0 and type(c) in (int, Fraction)


def assert_integral(poly):
    """``poly`` is canonical and every coefficient is an exact ``int``, as
    the wall kernel emits them."""
    assert_canonical(poly)
    assert all(type(c) is int for c in poly.terms.values())


@st.composite
def polynomial_pairs(draw):
    """Two polynomials of one rank in 1..2 with small rational coefficients."""
    dim = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(-2, 2)] * dim)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    return tuple(
        LaurentPolynomial(dim, draw(st.dictionaries(exps, coeffs, max_size=6))) for _ in "fg"
    )


def struct_read_slots(packed, width):
    """The slot reader that ``mirror._read_slots`` replaced, kept as its
    oracle: ``struct`` at 2, 4 and 8 bytes, chained into one list."""
    bits = 8 * width
    raw = packed.to_bytes((packed.bit_length() + bits - 1) // bits * width, "little")
    unpack = Struct({2: "<H", 4: "<I", 8: "<Q"}[width]).iter_unpack
    return list(chain.from_iterable(unpack(raw)))


@st.composite
def packed_slots(draw):
    """A slot width of 2, 4 or 8 bytes and an integer packed in such slots:
    random slot values, some at the slot's maximum, an all-zero tail of up
    to five slots, and sometimes a value past the slot, which carries."""
    width = draw(st.sampled_from([2, 4, 8]))
    top = (1 << 8 * width) - 1
    values = draw(st.lists(st.one_of(st.integers(0, top), st.just(top)), max_size=40))
    values += [0] * draw(st.integers(0, 5))
    if values and draw(st.booleans()):
        i = draw(st.integers(0, len(values) - 1))
        values[i] += draw(st.integers(1, 8)) << 8 * width
    return width, sum(v << 8 * width * i for i, v in enumerate(values)), values


class TestReadSlots:
    """``_read_slots`` reads 2-, 4- and 8-byte slots with one ``array``
    call; it must read what the ``struct`` reader it replaced read."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(packed_slots())
    def test_matches_the_struct_reader(self, case):
        width, packed, values = case
        got = mirror_module._read_slots(packed, width)
        assert got == struct_read_slots(packed, width)
        assert all(type(n) is int for n in got)
        if all(v >> 8 * width == 0 for v in values):  # no carry: the values, tail cut
            while values and not values[-1]:
                values.pop()
            assert got == values

    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_edge_cases(self, width):
        bits, top = 8 * width, (1 << 8 * width) - 1
        for packed in (0, 1, top, top + 1, 1 << 5 * bits, (1 << 5 * bits) - 1):
            assert mirror_module._read_slots(packed, width) == struct_read_slots(packed, width)
        assert mirror_module._read_slots(0, width) == []
        # a carry out of slot 0 is read in slot 1; a unit past the box is a slot of its own
        assert mirror_module._read_slots(top + 1, width) == [0, 1]
        assert mirror_module._read_slots(1 << 3 * bits, width) == [0, 0, 0, 1]

    def test_type_codes_match_their_widths(self):
        assert sorted(mirror_module._ARRAY) == [2, 4, 8]
        for width, code in mirror_module._ARRAY.items():
            assert array(code).itemsize == width
        assert mirror_module._SWAP == (sys.byteorder == "big")

    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_swap_reads_the_other_byte_order(self, monkeypatch, width):
        """The reader reads little-endian slots on either host: with the swap
        flipped, as on a host of the other byte order, it reads big-endian."""
        packed = int.from_bytes(bytes(range(1, 1 + 5 * width)), "little")
        raw = packed.to_bytes(5 * width, "little")
        big = [int.from_bytes(raw[i : i + width], "big") for i in range(0, len(raw), width)]
        assert big != struct_read_slots(packed, width)
        monkeypatch.setattr(mirror_module, "_SWAP", not mirror_module._SWAP)
        assert mirror_module._read_slots(packed, width) == big


def assert_potential_is_mirror(dec):
    """``disc_potential`` is ``z0 * g`` with the key order of ``g``."""
    want = syz_mirror(dec).expanded.prepend_variable(1)
    got = disc_potential(dec)
    assert got.dim == want.dim
    assert list(got.terms.items()) == list(want.terms.items())
    assert_integral(got)


class TestDiscPotentialChecksItsKernel:
    """``disc_potential`` runs the kernel and its three checks itself, and
    builds neither the wall factors, nor the table, nor a copy of g."""

    @pytest.mark.parametrize("dec", mirror_corpus())
    def test_matches_the_mirror_on_the_corpus(self, dec):
        assert_potential_is_mirror(dec)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(BOX_SIMPLICES), max_size=6))
    def test_matches_the_mirror_on_random_sums(self, parts):
        polytope = minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2)
        shift = polytope.lexmin
        dec = MinkowskiDecomposition(
            polytope.translate(tuple(-x for x in shift)), shift, tuple(parts)
        )
        assert_potential_is_mirror(dec)

    def test_builds_no_factor_table_or_copy(self, monkeypatch, hexagon_triangles):
        def refuse(*args):
            raise AssertionError("disc_potential built what it does not return")

        monkeypatch.setattr(mirror_module, "wall_factor", refuse)
        monkeypatch.setattr(GWTable, "_of", classmethod(refuse))
        monkeypatch.setattr(LaurentPolynomial, "prepend_variable", refuse)
        for dec in (hexagon_triangles, ap_decomposition(9)):
            assert disc_potential(dec).terms[(1,) + dec.polytope.vertices[-1]] == 1

    @pytest.mark.parametrize("entry", list(kernel_faults.ENTRY_POINTS))
    @pytest.mark.parametrize("name", list(kernel_faults.INJECTIONS))
    def test_every_injection_is_caught(self, monkeypatch, name, entry):
        dec, match = kernel_faults.inject(name, monkeypatch.setattr)
        with pytest.raises(VerificationFailedError, match=match):
            kernel_faults.ENTRY_POINTS[entry](dec)

    @pytest.mark.parametrize("entry", list(kernel_faults.HALF_ENTRY_POINTS))
    @pytest.mark.parametrize("name", kernel_faults.SUM_CHECKED)
    def test_sum_check_injections_are_caught_by_chamber_uv(self, monkeypatch, name, entry):
        dec, match = kernel_faults.inject(name, monkeypatch.setattr)
        with pytest.raises(VerificationFailedError, match=match):
            kernel_faults.HALF_ENTRY_POINTS[entry](dec)

    def test_sum_checked_injections(self):
        assert kernel_faults.SUM_CHECKED == ["carry between slots", "carry past the box"]

    def test_every_injection_is_caught_under_python_O(self):
        proc = subprocess.run(
            [sys.executable, "-O", kernel_faults.__file__], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        want = [
            f"caught: 1: {entry}: {name}"
            for name in kernel_faults.INJECTIONS
            for entry in kernel_faults.entry_points(name)
        ]
        assert len(want) == 3 * len(kernel_faults.INJECTIONS) + 4
        assert proc.stdout.splitlines() == want


class TestTrustedTable:
    """``syz_mirror`` builds its table with ``GWTable._of``; the table still
    holds what the validating constructor would make of it."""

    @pytest.mark.parametrize("dec", mirror_corpus())
    def test_kernel_table_is_canonical(self, dec):
        table = syz_mirror(dec).table
        assert table == GWTable(dict(table.entries))
        for point, n in table.entries.items():
            assert type(point) is tuple and all(type(x) is int for x in point)
            assert len(point) == dec.polytope.dim
            assert type(n) is int and n > 0

    def test_public_constructor_still_validates(self):
        with pytest.raises(TypeError):
            GWTable({(1.0, 2): 3.0})
        for bad in (0, -2):
            with pytest.raises(ValueError):
                GWTable({(0, 0): bad})


class TestSharedWallFactors:
    """``syz_mirror`` builds one wall factor per distinct summand."""

    @pytest.mark.parametrize("dec", mirror_corpus())
    def test_one_factor_object_per_distinct_summand(self, dec):
        factored = syz_mirror(dec).factored
        assert len(factored) == len(dec.summands)
        for f, s in zip(factored, dec.summands):
            assert f == wall_factor(s)
        for (f, s), (g, t) in combinations(zip(factored, dec.summands), 2):
            assert (f is g) == (s == t)


class TestNoSummandHashing:
    """The mirror kernels and ``match_transition`` read a decomposition's
    runs, so they hash no summand; ``UnimodularSimplex`` keeps no hash."""

    def test_no_summand_is_hashed(self, monkeypatch):
        decs = [ap_decomposition(127), enumerate_decompositions(zonotope(4, 3))[0]]
        assert not {"__init__", "__hash__"} & vars(UnimodularSimplex).keys()
        assert UnimodularSimplex.__slots__ == ("dim", "generators", "_box")
        assert hash(seg((1, 0))) == hash((2, ((1, 0),)))
        real = UnimodularSimplex.__hash__
        hashed = []

        def counting(simplex):
            hashed.append(simplex)
            return real(simplex)

        monkeypatch.setattr(UnimodularSimplex, "__hash__", counting)
        for dec in decs:
            mirror = syz_mirror(dec)
            assert disc_potential(dec) == mirror.expanded.prepend_variable(1)
            for chamber in range(-1, dec.p + 1):
                chamber_uv(dec, chamber)
            assert match_transition(dec).verified
        assert hashed == []
        factored = syz_mirror(decs[0]).factored
        assert len(factored) == 128 and all(f is factored[0] for f in factored)
        assert hash(seg((1, 0))) and hashed  # the counter sees a hash


class TestKeptBoxes:
    """Each simplex keeps the kernel's box and each decomposition its runs,
    so the per-type set-up is derived once, not once per kernel call."""

    def test_boxes_and_runs_are_derived_once(self, monkeypatch):
        (dec, *_), stored = recorded_runs(lambda: enumerate_decompositions(zonotope(4, 3)))
        real = UnimodularSimplex.vertex_set
        computed = []

        def counting(simplex):
            # the box is computed from the vertices, in _kernel_box only
            if sys._getframe(1).f_code.co_name == "_kernel_box":
                computed.append(simplex)
            return real(simplex)

        monkeypatch.setattr(UnimodularSimplex, "vertex_set", counting)
        runs, copy = dec._runs, list(dec._runs)
        for _ in range(2):
            mirror = syz_mirror(dec)
            assert disc_potential(dec) == mirror.expanded.prepend_variable(1)
            for chamber in range(-1, dec.p + 1):
                u, v = chamber_uv(dec, chamber)
                assert u * v == mirror.expanded.prepend_variable(0)
        distinct = set(dec.summands)
        assert len(distinct) > 1 and len(dec.summands) > len(distinct)
        assert len(computed) == len(distinct) and set(computed) == distinct
        # the runs are the list the search stored, neither replaced nor regrouped
        assert runs is stored[0] and dec._runs is runs and runs == copy


class TestCanonicalTerms:
    """Every polynomial syzkit builds without the public constructor's
    checks satisfies the invariants those checks establish."""

    DECOMPOSITIONS = [
        ap_decomposition(0),
        ap_decomposition(7),
        ap_decomposition(130),
        *enumerate_decompositions(hull([(3, 4)])),
        *enumerate_decompositions(hull(HEXAGON_CORNERS)),
        *enumerate_decompositions(zonotope(4, 3)),
        *(dec for dec, _ in SLOT_WIDTH_BOUNDARY),
    ]

    @pytest.mark.parametrize("dec", DECOMPOSITIONS)
    def test_mirror_polynomials(self, dec):
        mirror = syz_mirror(dec)
        assert mirror.table.entries is mirror.expanded.terms
        for poly in (*mirror.factored, mirror.expanded, disc_potential(dec)):
            assert_integral(poly)
        for s in dec.summands:
            assert_integral(wall_factor(s))
        for chamber in range(-1, dec.p + 1):
            for poly in chamber_uv(dec, chamber):
                assert_integral(poly)

    # A character with no unit entry.
    SCALES = (Fraction(3, 2), Fraction(5, 7), Fraction(1, 4))

    @pytest.mark.parametrize("dec", DECOMPOSITIONS)
    def test_int_coefficients_behave_like_fractions(self, dec):
        """Each kernel polynomial P and its public-constructor copy Q, whose
        coefficients are Fractions, agree in every operation whose result is
        printed or compared: the stdout of a command cannot tell them apart."""
        mirror = syz_mirror(dec)
        polys = [mirror.expanded, disc_potential(dec), *map(wall_factor, dec.summands)]
        for chamber in range(-1, dec.p + 1):
            polys += chamber_uv(dec, chamber)
        for p in polys:
            q = LaurentPolynomial(p.dim, p.terms)
            assert all(type(c) is Fraction for c in q.terms.values())
            assert p == q and q == p and hash(p) == hash(q)
            assert repr(p) == repr(q)
            character = Character(Fraction(2, 3), self.SCALES[: p.dim])
            for left, right in (
                (p, q),
                (p * p, q * q),
                (apply_character(p, character), apply_character(q, character)),
            ):
                assert left == right
                assert json.dumps(left.to_json_dict()) == json.dumps(right.to_json_dict())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        polynomial_pairs(),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.integers(-3, 3),
        st.data(),
    )
    def test_ring_operations(self, pair, q, lead, data):
        f, g = pair
        # Part of -f added to g, so products cancel terms.
        g = (lift(g) - lift(f).scale(data.draw(st.sampled_from([0, 1])))).specialize({})
        positive = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)
        character = Character(Fraction(2, 3), tuple(data.draw(positive) for _ in range(f.dim)))
        for poly in (
            f * g, g * f, f * f, f * lift(f).scale(q).specialize({}),
            f.prepend_variable(lead), f.prepend_variable(Fraction(lead)),
            apply_character(f, character),
        ):
            assert_canonical(poly)

    def test_cancelling_product(self):
        one_plus_z = LaurentPolynomial(1, {(0,): 1, (1,): 1})
        one_minus_z = LaurentPolynomial(1, {(0,): 1, (1,): -1})
        product_ = one_plus_z * one_minus_z
        assert_canonical(product_)
        assert product_.terms == {(0,): 1, (2,): -1}


class TestCliMatchesOracle:
    """CLI stdout against JSON built from the schoolbook product, byte for byte."""

    DECOMPOSITIONS = {
        "A_30": ap_decomposition(30),
        "hexagon": MinkowskiDecomposition(
            hull(HEXAGON_CORNERS), (0, 0), (tri((1, 0), (1, 1)), tri((0, 1), (1, 1)))
        ),
        "rotated_square": MinkowskiDecomposition(
            hull([(0, 0), (1, 1), (2, 0), (1, -1)]), (0, 0), (seg((1, 1)), seg((1, -1)))
        ),
    }

    @pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
    def test_mirror_and_potential_stdout(self, name, tmp_path, capsys):
        dec = self.DECOMPOSITIONS[name]
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(dec.to_json_dict()))
        g = oracle_product(dec.polytope.dim, dec.summands)
        table = GWTable({e: int(q) for e, q in g.terms.items()})
        mirror_report = {
            "factored": [wall_factor(s).to_json_dict() for s in dec.summands],
            "expanded": g.to_json_dict(),
            "gw_table": table.to_json_dict(),
        }
        potential_report = g.prepend_variable(1).to_json_dict()
        for argv, report in (
            (["mirror", "--decomposition", str(path), "--format", "json"], mirror_report),
            (["potential", "--decomposition", str(path)], potential_report),
        ):
            assert main(argv) == 0
            assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


class TestIdentityChecks:
    """Each identity check raises on corrupted input, also under python -O."""

    def test_carry_between_slots_is_caught(self, monkeypatch):
        # one-byte slots cannot hold C(21, 10) = 352716
        monkeypatch.setattr(mirror_module, "_slot_bytes", lambda bound: 1)
        with pytest.raises(VerificationFailedError):
            syz_mirror(ap_decomposition(20))
        with pytest.raises(VerificationFailedError):
            chamber_uv(ap_decomposition(20), 20)

    # A forced slot width for each decode path (one byte, array at 2, 4 and
    # 8 bytes, int.from_bytes at 3), with an A_p whose middle coefficient
    # C(p + 1, (p + 1) // 2) does not fit in it.
    NARROW_SLOTS = [(1, 20), (2, 20), (3, 30), (4, 40), (8, 80)]

    @pytest.mark.parametrize("width, p", NARROW_SLOTS)
    def test_carry_on_every_decode_path_is_caught(self, monkeypatch, width, p):
        dec = ap_decomposition(p)
        assert math.comb(p + 1, (p + 1) // 2) >= 256**width
        monkeypatch.setattr(mirror_module, "_slot_bytes", lambda bound: width)
        with pytest.raises(VerificationFailedError, match="sum to"):
            syz_mirror(dec)
        with pytest.raises(VerificationFailedError, match="sum to"):
            chamber_uv(dec, dec.p)

    @pytest.mark.parametrize("p", [5, 6, 14, 22, 54, 62], ids=lambda p: f"A_{p}")
    def test_carry_past_the_box_is_caught(self, monkeypatch, p):
        """A packed integer with a unit past its box, at slot widths 1, 2, 3,
        4, 8 and 9, is read in whole slots, so the sum check rejects it."""
        dec = ap_decomposition(p)
        past_box = 1 << 8 * packed_bytes(dec)
        real = mirror_module._packed_product
        monkeypatch.setattr(
            mirror_module, "_packed_product", lambda *args: real(*args) + past_box
        )
        with pytest.raises(VerificationFailedError, match="sum to"):
            syz_mirror(dec)
        with pytest.raises(VerificationFailedError, match="sum to"):
            chamber_uv(dec, dec.p)

    def test_newton_polytope_mismatch_is_caught(self, monkeypatch, hexagon_triangles):
        real = mirror_module._wall_slots

        def set_slot(point, value):
            """The kernel's slots with the one at ``point`` set to ``value``."""
            def corrupted(dim, parts):
                axes, slots = real(dim, parts)
                return axes, corrupt_slot(axes, slots, point, value)

            monkeypatch.setattr(mirror_module, "_wall_slots", corrupted)

        # the top vertex's slot dropped, in both ranks
        for dec in (hexagon_triangles, ap_decomposition(5)):
            set_slot(max(dec.polytope.vertices), 0)
            with pytest.raises(VerificationFailedError, match="Newton polytope"):
                syz_mirror(dec)

        # a slot in the box but outside P set, every vertex still present; on
        # the diagonal segment (4, 4) lies outside the box, (3, 0) inside.
        # In rank 1 the box is P, so no slot lies outside P.
        diagonal = MinkowskiDecomposition(hull([(0, 0), (3, 3)]), (0, 0), (seg((1, 1)),) * 3)
        for dec, outside in ((hexagon_triangles, (2, 0)), (diagonal, (3, 0))):
            set_slot(outside, 1)
            with pytest.raises(VerificationFailedError, match="Newton polytope"):
                syz_mirror(dec)

        # a box that is not P's bounding box
        def shifted(dim, parts):
            axes, slots = real(dim, parts)
            return tuple(range(a.start + 1, a.stop + 1) for a in axes), slots

        monkeypatch.setattr(mirror_module, "_wall_slots", shifted)
        for dec in (hexagon_triangles, ap_decomposition(5), diagonal):
            with pytest.raises(VerificationFailedError, match="Newton polytope"):
                syz_mirror(dec)

    def test_basis_weight_mismatch_is_caught(self, monkeypatch, hexagon_triangles):
        real = transition_module._basis_character

        def doubled(points, targets):
            character = real(points, targets)
            return Character(2 * character.gamma, tuple(2 * a for a in character.alpha))

        monkeypatch.setattr(transition_module, "_basis_character", doubled)
        with pytest.raises(VerificationFailedError, match="basis point"):
            match_transition(hexagon_triangles, [(0, 1), (1, 1), (1, 2)])

    @pytest.mark.parametrize("point", [(0, 1), (1, 1), (1, 2)])
    def test_one_corrupted_basis_weight_is_caught(self, monkeypatch, hexagon_triangles, point):
        # the character solved for n_v + 1 at ``point``: its weight there is
        # wrong, and at the other two basis points right
        real = transition_module._basis_character

        def corrupted(points, targets):
            return real(points, [n + (v == point) for v, n in zip(points, targets)])

        monkeypatch.setattr(transition_module, "_basis_character", corrupted)
        with pytest.raises(VerificationFailedError, match=re.escape(f"basis point {point}")):
            match_transition(hexagon_triangles, [(0, 1), (1, 1), (1, 2)])

    @pytest.mark.parametrize("corrupt", [lambda n: n + 1, lambda n: 0], ids=["value", "support"])
    def test_specialization_mismatch_is_caught(self, monkeypatch, hexagon_triangles, corrupt):
        # the walk misreads n_v at one non-basis point, (2, 2), so q_v there is
        # wrong while the kernel's slots and g's terms stay true
        monkeypatch.setattr(transition_module, "_rows", misread_rows((2, 2), corrupt))
        with pytest.raises(VerificationFailedError, match="failed to reproduce"):
            match_transition(hexagon_triangles, [(0, 1), (1, 1), (1, 2)])

    def test_unwalked_term_is_caught(self, monkeypatch, hexagon_triangles):
        # the walk misses column 2, whose points (2, 1) and (2, 2) are terms of
        # g off the basis: only the support count sees them
        real = transition_module._rows
        monkeypatch.setattr(transition_module, "_rows", lambda axes, slots: real(axes, slots)[:2])
        with pytest.raises(VerificationFailedError, match="failed to reproduce"):
            match_transition(hexagon_triangles, [(0, 1), (1, 1), (1, 2)])

    def test_checks_survive_python_O(self):
        script = "\n".join([
            "import sys",
            "assert False, 'asserts are live'",
            "from syzkit import VerificationFailedError, UnimodularSimplex, hull",
            "from syzkit import MinkowskiDecomposition, match_transition, syz_mirror",
            "import syzkit.mirror as m",
            "import syzkit.transition as t",
            "step = UnimodularSimplex(1, ((1,),))",
            "dec = MinkowskiDecomposition(hull([(0,), (21,)]), (0,), (step,) * 21)",
            "rows = t._rows",  # the walk misreads n_v at (5,), off the basis
            "t._rows = lambda axes, slots: [",
            "    (x, [n + (i == 5) for i, n in enumerate(row)]) for x, row in rows(axes, slots)]",
            "try:",
            "    match_transition(dec)",
            "except VerificationFailedError:",
            "    print('caught', sys.flags.optimize)",
            "m._slot_bytes = lambda bound: 1",
            "try:",
            "    syz_mirror(dec)",
            "except VerificationFailedError:",
            "    print('caught', sys.flags.optimize)",
        ])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["caught", "1"] * 2

    def test_narrow_slots_survive_python_O(self):
        script = "\n".join([
            "import sys",
            "assert False, 'asserts are live'",
            "from syzkit import MinkowskiDecomposition, UnimodularSimplex, hull",
            "from syzkit import VerificationFailedError, chamber_uv, syz_mirror",
            "import syzkit.mirror as m",
            "step = UnimodularSimplex(1, ((1,),))",
            f"for width, p in {self.NARROW_SLOTS!r}:",
            "    dec = MinkowskiDecomposition(hull([(0,), (p + 1,)]), (0,), (step,) * (p + 1))",
            "    m._slot_bytes = lambda bound: width",
            "    for call in (syz_mirror, lambda d: chamber_uv(d, d.p)):",
            "        try:",
            "            call(dec)",
            "        except VerificationFailedError:",
            "            print('caught', width, sys.flags.optimize)",
        ])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        want = [f"caught {width} 1" for width, _ in self.NARROW_SLOTS for _ in "uv"]
        assert proc.stdout.splitlines() == want


def misread_rows(point, corrupt):
    """A rank-2 ``_rows`` whose rows are copies, with the slot of ``point``
    read through ``corrupt``; the slots themselves stay as they are."""
    real = mirror_module._rows

    def misread(axes, slots):
        rows = [(x, list(row)) for x, row in real(axes, slots)]
        row, y = rows[point[0] - axes[0].start][1], point[1] - axes[1].start
        row[y] = corrupt(row[y])
        return rows

    return misread


def corrupt_slot(axes, slots, point, value):
    """A list copy of ``slots``, padded with the zero slots past the last
    nonzero one that the kernel does not read, with ``point``'s set to ``value``."""
    out = list(slots) + [0] * (math.prod(map(len, axes)) - len(slots))
    index = 0
    for axis, x in zip(axes, point):  # row-major
        index = index * len(axis) + x - axis.start
    out[index] = value
    return out


def swappable_slots(dec):
    """Two slots of g's packed integer, in the kernel's box, whose
    coefficients differ and whose exponents differ mod 2, and whether one
    of them is a vertex of P: a pair of non-vertex slots where there is one,
    since a vertex slot, always 1, fails the vertex test when swapped."""
    d = dec.polytope.dim
    g = mixed_radix_wall_product(d, dec.summands)
    verts = dec.polytope.vertices
    low = [min(v[j] for v in verts) for j in range(d)]
    radix = [max(v[j] for v in verts) - low[j] + 1 for j in range(d)]

    def slot(e):
        index = 0
        for x, lo, r in zip(e, low, radix):
            index = index * r + x - lo
        return index

    pairs = [
        (e in verts or f in verts, slot(e), slot(f)) for e, f in combinations(g, 2)
        if g[e] != g[f] and any((x - y) % 2 for x, y in zip(e, f))
    ]
    if not pairs:
        raise AssertionError("no two such slots")
    at_vertex, i, j = min(pairs, key=lambda pair: pair[0])
    return i, j, at_vertex


def swap_packed_slots(monkeypatch, width, i, j):
    """Make the kernel's packed product come back with slots i and j
    swapped: their sum, and the support, stay the same."""
    real = mirror_module._packed_product
    bits = 8 * width
    mask = (1 << bits) - 1

    def swapped(*args):
        packed = real(*args)
        a, b = packed >> bits * i & mask, packed >> bits * j & mask
        return packed + ((b - a) << bits * i) + ((a - b) << bits * j)

    monkeypatch.setattr(mirror_module, "_packed_product", swapped)


class TestSignPointCheck:
    """``syz_mirror`` checks g(eps) == prod f_i(eps) at every eps in {1, -1}^d."""

    DECOMPOSITIONS = [
        ap_decomposition(5),
        ap_decomposition(20),
        *enumerate_decompositions(hull(HEXAGON_CORNERS)),
        *enumerate_decompositions(zonotope(4, 3))[:4],
        dilated_triangle(5),
    ]

    @pytest.mark.parametrize("dec", DECOMPOSITIONS)
    def test_swapped_slots_are_caught(self, monkeypatch, dec):
        d = dec.polytope.dim
        real = kernel(d, dec.summands)
        width = mirror_module._slot_bytes(math.prod(1 + k for k in dec.ks))
        i, j, at_vertex = swappable_slots(dec)
        swap_packed_slots(monkeypatch, width, i, j)
        # The kernel's sum check passes the swap, and so does the support
        # test: the support is unchanged.  The vertex test sees it when it
        # moves a vertex's 1, as on the hexagon, whose one interior point is
        # the only slot that is not a vertex; the sign points see the rest.
        swapped = kernel(d, dec.summands)
        assert swapped != real
        assert list(swapped) == list(real)
        assert sum(swapped.values()) == sum(real.values())
        assert at_vertex == (dec.polytope == hull(HEXAGON_CORNERS))
        with pytest.raises(
            VerificationFailedError, match="Newton polytope" if at_vertex else "sign point"
        ):
            syz_mirror(dec)

    @pytest.mark.parametrize("dec", DECOMPOSITIONS)
    def test_every_changed_coefficient_is_caught(self, dec):
        """Changing one coefficient by one changes g at every sign point; at a
        vertex of P the vertex test, which runs first, sees the 1 changed."""
        d = dec.polytope.dim
        runs = list(Counter(dec.summands).items())
        axes, slots = mirror_module._wall_slots(d, kernel_parts(runs))
        slots = list(slots)
        mirror_module._check_g(dec.polytope, runs, axes, slots)
        points = list(product(*axes))
        for i in [i for i, n in enumerate(slots) if n]:
            slots[i] += 1
            match = "Newton polytope" if points[i] in dec.polytope.vertices else "sign point"
            with pytest.raises(VerificationFailedError, match=match):
                mirror_module._check_g(dec.polytope, runs, axes, slots)
            slots[i] -= 1

    def test_check_survives_python_O(self):
        # A_5: g = 1 + 6z + 15z^2 + ..., in one-byte slots; swap 6 and 15
        script = "\n".join([
            "import sys",
            "assert False, 'asserts are live'",
            "from syzkit import MinkowskiDecomposition, UnimodularSimplex, hull",
            "from syzkit import VerificationFailedError, syz_mirror",
            "import syzkit.mirror as m",
            "step = UnimodularSimplex(1, ((1,),))",
            "dec = MinkowskiDecomposition(hull([(0,), (6,)]), (0,), (step,) * 6)",
            "real = m._packed_product",
            "m._packed_product = lambda *args: real(*args) + (9 << 8) - (9 << 16)",
            "try:",
            "    syz_mirror(dec)",
            "except VerificationFailedError as exc:",
            "    print('caught', sys.flags.optimize, 'sign point' in str(exc))",
        ])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["caught", "1", "True"]


def set_newton_check(polytope, terms):
    """The Newton check that listed P's lattice points, kept as the oracle of
    the row-based one: True when the support lies in P and every vertex of P
    carries a term."""
    return terms.keys() <= set(lattice_points(polytope)) and all(
        v in terms for v in polytope.vertices
    )


def dict_sign_point_check(dim, table, runs):
    """The sign-point check that summed g's parities in one pass over its
    terms, kept as the oracle of the row-based one: True when g equals the
    product of the wall factors at every sign point."""
    top = dim - 1
    parity = [0] * (1 << dim)
    for v, n in table.items():
        parity[v[0] & 1 | (v[-1] & 1) << top] += n
    factors = [([u[0] & 1 | (u[-1] & 1) << top for u in s.generators], m) for s, m in runs]
    for point in range(1 << dim):
        sign = [1 - 2 * ((b & point).bit_count() & 1) for b in range(1 << dim)]
        left = sum(a * b for a, b in zip(sign, parity))
        right = math.prod((1 + sum(sign[b] for b in us)) ** m for us, m in factors)
        if left != right:
            return False
    return True


def row_newton_check(polytope, axes, slots):
    """The Newton check that read ``mirror._rows``, one slice per column,
    kept as the oracle of the one walk of ``_check_g``: True when the box is
    P's bounding box, every vertex of P carries a term, and in rank 2 no
    nonzero slot of a row lies outside P's bounds in its column."""
    verts, low = polytope.vertices, axes[-1].start
    step = len(axes[-1]) if polytope.dim == 2 else 0  # in rank 1, v[0] is v[-1]
    return not (
        axes != tuple(range(min(c), max(c) + 1) for c in zip(*verts))
        or not all(
            i < len(slots) and slots[i]
            for i in [(v[0] - axes[0].start) * step + v[-1] - low for v in verts]
        )
        or polytope.dim == 2 and any(
            any(row[: lo - low]) or any(row[hi - low + 1 :])
            for (_, row), (_, lo, hi) in zip(
                mirror_module._rows(axes, slots), _column_bounds(polytope)
            )
        )
    )


def row_sign_point_check(dim, axes, slots, runs):
    """The sign-point check that summed the even and odd offsets of each row
    of ``mirror._rows``, kept as the oracle of the one walk of ``_check_g``:
    True when g equals the product of the wall factors at every sign point."""
    top, low = dim - 1, axes[-1].start & 1
    parity = [0] * (1 << dim)
    for x, row in mirror_module._rows(axes, slots):
        parity[x & 1 | low << top] += sum(row[0::2])
        parity[x & 1 | (low ^ 1) << top] += sum(row[1::2])
    values = mirror_module._FACTORS[dim]
    factors = [
        (values[tuple(u[0] & 1 | (u[-1] & 1) << top for u in s.generators)], m) for s, m in runs
    ]
    return all(  # eps = (1, ..., 1) is the kernel's sum check
        sum(map(operator.mul, sign, parity)) == math.prod(f[point] ** m for f, m in factors)
        for point, sign in enumerate(mirror_module._SIGNS[dim][1:], 1)
    )


class TestRowChecksMatchTheirOracles:
    """``_check_g`` walks P's columns once over g's slots; on random
    decompositions, each with one slot set anew, it rejects exactly what the
    row-based Newton and sign-point checks reject, and those exactly what
    the checks on the term dict reject, and it also rejects, as a Newton
    polytope failure, a vertex of P whose coefficient is not 1."""

    @staticmethod
    def random_decomposition(rng):
        if rng.random() < 0.25:
            return ap_decomposition(rng.randint(0, 12))
        parts = [random_unimodular_simplex(rng) for _ in range(rng.randint(1, 5))]
        p = minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2)
        return MinkowskiDecomposition(p, (0, 0), tuple(parts))

    @staticmethod
    def one_walk_verdict(polytope, runs, axes, slots):
        """``_check_g``'s outcome as the oracles' pair: passes (True, True),
        raises at the Newton check (False, False), at a sign point (True, False)."""
        try:
            mirror_module._check_g(polytope, runs, axes, slots)
        except VerificationFailedError as exc:
            return (True, False) if "sign point" in str(exc) else (False, False)
        return (True, True)

    def test_against_the_term_dict_checks(self):
        rng = random.Random(26)
        outcomes, short, vertex_only = Counter(), 0, 0
        for _ in range(400):
            dec = self.random_decomposition(rng)
            polytope, runs = dec.polytope, dec._runs
            axes, slots = mirror_module._wall_slots(polytope.dim, kernel_parts(runs))
            # one slot set anew, maybe to its value: of the kernel's own list,
            # which stops at its last nonzero slot, or of the list padded to the box
            box = math.prod(map(len, axes))
            if rng.random() < 0.4:
                slots = list(slots)
                short += len(slots) < box
            else:
                slots = list(slots) + [0] * (box - len(slots))
            index = rng.randrange(len(slots))
            slots[index] = rng.choice([0, 1, slots[index] + 1])
            terms = mirror_module._slot_terms(axes, slots)
            want = (set_newton_check(polytope, terms),
                    dict_sign_point_check(polytope.dim, terms, runs))
            rows = (row_newton_check(polytope, axes, slots),
                    row_sign_point_check(polytope.dim, axes, slots, runs))
            assert rows == want, (dec, slots)
            # A draw that fails the Newton check changed a coefficient, which
            # changes g at every sign point, so (False, True) cannot occur.
            # Every vertex of P carries 1, one vertex per summand summed.
            if not all(terms.get(v) == 1 for v in polytope.vertices):
                vertex_only += want[0]
                want = (False, False)
            assert self.one_walk_verdict(polytope, runs, axes, slots) == want, (dec, slots)
            outcomes[want] += 1
        assert outcomes.keys() == {(True, True), (True, False), (False, False)}, outcomes
        assert short > 20, short
        assert vertex_only > 20, vertex_only


def diagonal_steps(n):
    """[(0, 0), (n, n)] as n unit steps: n + 1 terms in a box of (n + 1)^2 slots."""
    return MinkowskiDecomposition(hull([(0, 0), (n, n)]), (0, 0), (seg((1, 1)),) * n)


def summands_packed_bytes(dim, summands):
    """Bytes of the packed product of the wall factors of ``summands``: the
    slots of the sum of their vertex boxes times the slot width."""
    extents = [[max(c) - min(c) for c in zip(*s.vertex_set())] for s in summands]
    box = math.prod(1 + sum(e[j] for e in extents) for j in range(dim))
    return box * mirror_module._slot_bytes(math.prod(1 + s.k for s in summands))


class TestPackedSizeCap:
    """The kernel predicts the bytes of its packed integer and refuses a
    product past MAX_PACKED_BYTES before it packs anything."""

    def test_default_cap(self):
        assert mirror_module.MAX_PACKED_BYTES == 2**28

    def test_cli_refuses_the_long_diagonal_quickly(self, tmp_path):
        path = tmp_path / "diagonal.json"
        path.write_text(json.dumps({
            "polytope": {"dim": 2, "vertices": [[0, 0], [20000, 20000]]},
            "translation": [0, 0],
            "summands": [{"generators": [[1, 1]]}] * 20000,
        }))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "syzkit", "mirror", "--decomposition", str(path)],
            capture_output=True, text=True,
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        report = json.loads(proc.stdout)
        assert report["error"] == "OutputTooLarge"
        predicted = 20001**2 * mirror_module._slot_bytes(2**20000)
        assert str(predicted) in report["detail"]
        assert str(mirror_module.MAX_PACKED_BYTES) in report["detail"]

    def test_halves_are_capped_by_their_predictions(self, monkeypatch):
        """Each half's prediction is its box of slots times its slot width,
        as g's is: a cap one byte below the larger half refuses the chamber,
        naming that half's bytes, and the cap at it admits the chamber."""
        dec = enumerate_decompositions(zonotope(4, 3))[0]
        for chamber in range(-1, dec.p + 1):
            halves = (dec.summands[: chamber + 1], dec.summands[chamber + 1 :])
            size = max(summands_packed_bytes(2, half) for half in halves)
            monkeypatch.setattr(mirror_module, "MAX_PACKED_BYTES", size - 1)
            with pytest.raises(OutputTooLargeError, match=f"take {size} bytes"):
                chamber_uv(dec, chamber)
            monkeypatch.setattr(mirror_module, "MAX_PACKED_BYTES", size)
            chamber_uv(dec, chamber)

    def test_nothing_is_packed_past_the_cap(self, monkeypatch):
        dec = diagonal_steps(20000)

        def packed(*args):
            raise AssertionError("a product was packed")

        monkeypatch.setattr(mirror_module, "_packed_product", packed)
        start = time.perf_counter()
        with pytest.raises(OutputTooLargeError, match=str(packed_bytes(dec))):
            syz_mirror(dec)
        for chamber in (dec.p // 2, dec.p):
            with pytest.raises(OutputTooLargeError):
                chamber_uv(dec, chamber)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("dec", mirror_corpus())
    def test_cap_admits_the_benchmark_corpus(self, monkeypatch, dec):
        assert packed_bytes(dec) <= mirror_module.MAX_PACKED_BYTES
        real = mirror_module._packed_product
        sizes = []

        def measured(*args):
            packed = real(*args)
            sizes.append((packed.bit_length() + 7) // 8)
            return packed

        monkeypatch.setattr(mirror_module, "_packed_product", measured)
        syz_mirror(dec)
        assert 0 < sizes[0] <= packed_bytes(dec)
        d = dec.polytope.dim
        for chamber in range(-1, dec.p + 1):
            sizes.clear()
            chamber_uv(dec, chamber)
            halves = (dec.summands[: chamber + 1], dec.summands[chamber + 1 :])
            assert len(sizes) == 2
            for size, half in zip(sizes, halves):
                assert 0 < size <= summands_packed_bytes(d, half) <= packed_bytes(dec)

    def test_a2000_packs_half_a_megabyte(self, monkeypatch):
        dec = ap_decomposition(2000)
        size = packed_bytes(dec)
        assert size == 2002 * 251
        monkeypatch.setattr(mirror_module, "MAX_PACKED_BYTES", size - 1)
        with pytest.raises(OutputTooLargeError, match=f"{size} bytes"):
            kernel(1, dec.summands)
        monkeypatch.setattr(mirror_module, "MAX_PACKED_BYTES", size)
        terms = kernel(1, dec.summands)
        assert terms[1000,] == math.comb(2001, 1000)


class TestGwClassBudget:
    def test_count_past_budget_raises_before_building(self):
        # 2^41 classes: only a count taken up front can answer this quickly
        with pytest.raises(SearchBudgetExceededError):
            enumerate_gw_classes(ap_decomposition(40), 40, SECTOR_D0)
        with pytest.raises(SearchBudgetExceededError):
            enumerate_gw_classes(ap_decomposition(5), 5, SECTOR_D0, budget=63)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_gw_classes(ap_decomposition(5), 5, SECTOR_D0, budget=-3)

    def test_count_at_budget_is_listed(self):
        assert len(enumerate_gw_classes(ap_decomposition(5), 5, SECTOR_D0, budget=64)) == 64
        # the inactive side does not count against the budget
        assert len(enumerate_gw_classes(ap_decomposition(40), 40, SECTOR_DINF, budget=1)) == 1

    def test_cli_budget_flag_and_env(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "a40.json"
        path.write_text(json.dumps(ap_decomposition(40).to_json_dict()))
        for argv in (
            ["gw", "--decomposition", str(path)],
            ["gw", "--decomposition", str(path), "--chamber", "5", "--budget", "63"],
        ):
            assert main(argv) == 1
            assert json.loads(capsys.readouterr().out)["error"] == "SearchBudgetExceeded"
        monkeypatch.setenv("SYZKIT_BUDGET", "63")
        assert main(["gw", "--decomposition", str(path), "--chamber", "5"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "SearchBudgetExceeded"
        assert main(["gw", "--decomposition", str(path), "--chamber", "5", "--budget", "64"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 64


class TestGWTableJson:
    def test_sorted_entries(self, hexagon_triangles):
        data = syz_mirror(hexagon_triangles).table.to_json_dict()
        assert data["entries"][0] == {"point": [0, 0], "n": 1}
        points = [tuple(e["point"]) for e in data["entries"]]
        assert points == sorted(points)

    def test_disc_class_json_round_trip(self):
        beta = DiscClass(SECTOR_D0, ((0,), (1,), (0,)))
        assert DiscClass.from_json_dict(beta.to_json_dict()) == beta
