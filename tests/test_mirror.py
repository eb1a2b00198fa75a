import json
import math
import random
import subprocess
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from syzkit import (
    DiscClass,
    GWTable,
    LaurentPolynomial,
    MinkowskiDecomposition,
    SECTOR_D0,
    SECTOR_DINF,
    SECTOR_NONE,
    SearchBudgetExceededError,
    ShapeMismatchError,
    UnimodularSimplex,
    VerificationFailedError,
    chamber_uv,
    disc_potential,
    enumerate_decompositions,
    enumerate_gw_classes,
    gw_invariant,
    hull,
    lattice_points,
    match_transition,
    minkowski_sum_all,
    newton_polytope,
    syz_mirror,
    wall_factor,
)
from syzkit import mirror as mirror_module
from syzkit import transition as transition_module
from syzkit.cli import main
from conftest import (
    HEXAGON_CORNERS,
    ap_decomposition,
    random_unimodular_simplex,
    seg,
    tri,
)


def rational_dict(poly):
    return {e: int(c) for e, c in poly.rational_terms().items()}


def oracle_product(dim, summands):
    """The wall-factor product as a schoolbook fold of LaurentPolynomial.__mul__."""
    g = LaurentPolynomial.constant(dim, 1)
    for s in summands:
        g = g * wall_factor(s)
    return g


def zonotope(m, n):
    """Minkowski sum of the segments [0, n*d] over the first m directions d."""
    dirs = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (-1, 2), (2, -1)][:m]
    corners = [(0, 0)]
    for d in dirs:
        corners = [(x + t * n * d[0], y + t * n * d[1]) for x, y in corners for t in (0, 1)]
    return hull(corners)


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
        prod_poly = LaurentPolynomial.constant(2, 1)
        for f in mirror.factored:
            prod_poly = prod_poly * f
        assert prod_poly == mirror.expanded

    def test_newton_polytope_is_the_polytope(self, hexagon_segments):
        mirror = syz_mirror(hexagon_segments)
        assert newton_polytope(mirror.expanded) == hexagon_segments.polytope

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
            assert newton_polytope(mirror.expanded) == p
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
            assert w.coefficient((1,) + v).as_fraction() == 1


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

    def test_chamber_range(self, conifold):
        beta = DiscClass(SECTOR_D0, ((0,), (0,)))
        with pytest.raises(ValueError):
            gw_invariant(conifold, 2, beta)
        with pytest.raises(ValueError):
            gw_invariant(conifold, -2, beta)


class TestEnumerateClasses:
    def test_hexagon_segments_top_chamber(self, hexagon_segments):
        classes = enumerate_gw_classes(hexagon_segments, 2, SECTOR_D0)
        assert len(classes) == 8

    def test_bottom_chamber_only_the_basic_class(self, hexagon_segments):
        classes = enumerate_gw_classes(hexagon_segments, -1, SECTOR_D0)
        assert classes == [DiscClass(SECTOR_D0, ((0,), (0,), (0,)))]

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


class TestWallProductKernel:
    """The packed-integer kernel against the schoolbook fold it replaced."""

    @pytest.mark.parametrize("p", [*range(1, 51), 200])
    def test_ap_matches_fold(self, p):
        dec = ap_decomposition(p)
        mirror = syz_mirror(dec)
        assert mirror.expanded == oracle_product(1, dec.summands)
        assert mirror.expanded.evaluate((1,)) == 2 ** (p + 1)

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
            below = LaurentPolynomial.constant(2, 1)
            for chamber in range(-1, dec.p + 1):
                if chamber >= 0:
                    below = below * wall_factor(dec.summands[chamber])
                u, v = chamber_uv(dec, chamber)
                assert u == below.prepend_variable(1)
                assert u * v == g.prepend_variable(0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(BOX_SIMPLICES), max_size=6))
    def test_random_sums_match_fold(self, parts):
        got = mirror_module._wall_product(2, parts)
        want = oracle_product(2, parts)
        assert LaurentPolynomial(2, got) == want
        assert list(got) == sorted(got)
        assert sum(got.values()) == math.prod(1 + s.k for s in parts)
        polytope = minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2)
        shift = polytope.lexmin
        dec = MinkowskiDecomposition(
            polytope.translate(tuple(-x for x in shift)), shift, tuple(parts)
        )
        g = syz_mirror(dec).expanded
        assert g == oracle_product(2, dec.summands)
        for chamber in range(-1, dec.p + 1):
            u, v = chamber_uv(dec, chamber)
            assert u * v == g.prepend_variable(0)

    def test_no_summands_is_one(self):
        assert mirror_module._wall_product(2, ()) == {(0, 0): 1}


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
        table = GWTable({e: int(q) for e, q in g.rational_terms().items()})
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

    def test_newton_polytope_mismatch_is_caught(self, monkeypatch, hexagon_triangles):
        real = mirror_module._wall_product

        def drop_top_vertex(dim, summands):
            terms = real(dim, summands)
            del terms[max(terms)]
            return terms

        monkeypatch.setattr(mirror_module, "_wall_product", drop_top_vertex)
        with pytest.raises(VerificationFailedError):
            syz_mirror(hexagon_triangles)

    def test_basis_weight_mismatch_is_caught(self, monkeypatch, hexagon_triangles):
        real = transition_module.invert_unimodular

        def doubled(matrix):
            return [[2 * x for x in row] for row in real(matrix)]

        monkeypatch.setattr(transition_module, "invert_unimodular", doubled)
        with pytest.raises(VerificationFailedError):
            match_transition(hexagon_triangles, [(0, 1), (1, 1), (1, 2)])

    def test_checks_survive_python_O(self):
        script = "\n".join([
            "import sys",
            "assert False, 'asserts are live'",
            "from syzkit import VerificationFailedError, UnimodularSimplex, hull",
            "from syzkit import MinkowskiDecomposition, syz_mirror",
            "import syzkit.mirror as m",
            "step = UnimodularSimplex(1, ((1,),))",
            "dec = MinkowskiDecomposition(hull([(0,), (21,)]), (0,), (step,) * 21)",
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
        assert proc.stdout.strip() == "caught 1"


class TestGwClassBudget:
    def test_count_past_budget_raises_before_building(self):
        # 2^41 classes: only a count taken up front can answer this quickly
        with pytest.raises(SearchBudgetExceededError):
            enumerate_gw_classes(ap_decomposition(40), 40, SECTOR_D0)
        with pytest.raises(SearchBudgetExceededError):
            enumerate_gw_classes(ap_decomposition(5), 5, SECTOR_D0, budget=63)

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
