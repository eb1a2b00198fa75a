import random
from fractions import Fraction

import pytest

from syzkit import (
    BasisSimplex,
    Character,
    InvalidBasisError,
    MinkowskiDecomposition,
    apply_character,
    enumerate_decompositions,
    hull,
    lattice_points,
    match_transition,
    minkowski_sum_all,
    solve_character_match,
    syz_mirror,
)
from conftest import ap_decomposition, random_unimodular_simplex, seg, zonotope
from parametric import parameter_name, toric_family

DP6_BASIS = ((0, 1), (1, 1), (1, 2))


class TestBasisSimplex:
    def test_dp6_basis_is_valid(self, hexagon):
        basis = BasisSimplex(DP6_BASIS)
        basis.validate_for(hexagon)

    def test_non_unimodular_differences_rejected(self):
        with pytest.raises(InvalidBasisError):
            BasisSimplex(((0, 0), (1, 0), (1, 2)))

    def test_wrong_point_count_rejected(self):
        with pytest.raises(InvalidBasisError):
            BasisSimplex(((0, 0), (1, 0)))

    def test_first_point_must_be_vertex(self, hexagon):
        basis = BasisSimplex(((1, 1), (1, 2), (2, 2)))
        with pytest.raises(InvalidBasisError):
            basis.validate_for(hexagon)

    def test_points_must_lie_in_polytope(self, unit_square):
        basis = BasisSimplex(((0, 0), (1, 0), (2, 1)))
        with pytest.raises(InvalidBasisError):
            basis.validate_for(unit_square)

    def test_default_deterministic(self, hexagon, unit_square):
        assert BasisSimplex.default_for(hexagon).points == ((0, 0), (0, 1), (1, 0))
        assert BasisSimplex.default_for(unit_square).points == ((0, 0), (0, 1), (1, 0))
        segment = hull([(0,), (2,)])
        assert BasisSimplex.default_for(segment).points == ((0,), (1,))

    def test_degenerate_polytope_has_no_basis(self):
        flat = hull([(0, 0), (3, 0)])
        with pytest.raises(InvalidBasisError):
            BasisSimplex.default_for(flat)


class TestToricFamily:
    def test_dp6_family_shape(self, hexagon):
        family = toric_family(hexagon, DP6_BASIS)
        assert len(family.params) == 4  # seven lattice points minus three basis points
        for v in DP6_BASIS:
            assert family.coefficient(v).as_fraction() == 1
        for v in [(0, 0), (1, 0), (2, 1), (2, 2)]:
            coeff = family.coefficient(v)
            assert not coeff.is_rational()
        assert set(family.params) == {
            parameter_name(v) for v in [(0, 0), (1, 0), (2, 1), (2, 2)]
        }

    def test_conifold_family(self, unit_square):
        family = toric_family(unit_square, ((0, 0), (1, 0), (0, 1)))
        assert family.params == (parameter_name((1, 1)),)
        assert family.coefficient((0, 0)).as_fraction() == 1

    def test_segment_family(self):
        segment = hull([(0,), (2,)])
        family = toric_family(segment, ((0,), (1,)))
        assert family.params == (parameter_name((2,)),)
        assert family.coefficient((0,)).as_fraction() == 1
        assert family.coefficient((1,)).as_fraction() == 1

    def test_parameter_count_is_points_minus_rank_plus_one(self, hexagon):
        family = toric_family(hexagon, DP6_BASIS)
        m_tilde = len(lattice_points(hexagon))
        assert len(family.params) == m_tilde - (hexagon.dim + 1)


class TestMatchTransition:
    def test_conifold_is_the_identity_match(self, conifold):
        report = match_transition(conifold, ((0, 0), (1, 0), (0, 1)))
        assert report.verified
        assert report.character.is_identity()
        assert report.specialization == {(1, 1): Fraction(1)}

    def test_a1_quarter(self, a1):
        report = match_transition(a1, ((0,), (1,)))
        assert report.character == Character(1, (Fraction(2),))
        assert report.specialization == {(2,): Fraction(1, 4)}

    def test_dp6_segment_decomposition(self, hexagon_segments):
        report = match_transition(hexagon_segments, DP6_BASIS)
        assert report.verified
        assert report.character == Character(2, (Fraction(2), Fraction(1, 2)))
        # exact solve of the three basis equations gives unequal middle
        # entries (1/4), not a uniform tuple
        assert report.specialization == {
            (0, 0): Fraction(1, 2),
            (1, 0): Fraction(1, 4),
            (2, 1): Fraction(1, 4),
            (2, 2): Fraction(1, 2),
        }

    def test_dp6_triangle_decomposition(self, hexagon_triangles):
        report = match_transition(hexagon_triangles, DP6_BASIS)
        assert report.verified
        assert report.character == Character(3, (Fraction(3), Fraction(1, 3)))
        assert report.specialization == {
            (0, 0): Fraction(1, 3),
            (1, 0): Fraction(1, 9),
            (2, 1): Fraction(1, 9),
            (2, 2): Fraction(1, 3),
        }

    def test_specialized_family_is_character_equivalent_to_mirror(
        self, hexagon_segments, hexagon_triangles
    ):
        # Oracle: the toric family with parameter symbols, specialized and
        # put under the character, must be g exactly.
        cases = [(hexagon_segments, DP6_BASIS), (hexagon_triangles, DP6_BASIS)]
        cases += [
            (dec, None)
            for m, n in ((4, 3), (5, 2), (4, 5))
            for dec in enumerate_decompositions(zonotope(m, n))
        ]
        cases += [(ap_decomposition(p), None) for p in (10, 50)]
        for dec, basis in cases:
            report = match_transition(dec, basis)
            family = toric_family(dec.polytope, report.basis)
            specialized = family.specialize(
                {parameter_name(v): q for v, q in report.specialization.items()}
            )
            g = syz_mirror(dec).expanded
            character = solve_character_match(specialized, g)
            assert character == report.character
            assert apply_character(specialized, character) == g

    def test_basis_equations_hold_exactly(self, hexagon_triangles):
        report = match_transition(hexagon_triangles, DP6_BASIS)
        table = syz_mirror(hexagon_triangles).table
        for v in report.basis.points:
            assert report.character.weight(v) == table[v]

    def test_specialization_size(self, hexagon_segments):
        report = match_transition(hexagon_segments, DP6_BASIS)
        m_tilde = len(lattice_points(hexagon_segments.polytope))
        assert len(report.specialization) == m_tilde - 3

    def test_default_basis_used_when_unspecified(self, conifold):
        report = match_transition(conifold)
        assert report.basis.points == ((0, 0), (0, 1), (1, 0))
        assert report.verified

    def test_two_bases_related_by_a_character(self, hexagon_triangles):
        report_a = match_transition(hexagon_triangles, DP6_BASIS)
        report_b = match_transition(hexagon_triangles, ((0, 0), (1, 0), (1, 1)))
        polytope = hexagon_triangles.polytope

        def specialized(report):
            family = toric_family(polytope, report.basis)
            return family.specialize(
                {parameter_name(v): q for v, q in report.specialization.items()}
            )

        relating = solve_character_match(specialized(report_a), specialized(report_b))
        assert relating is not None

    def test_invalid_bases_rejected(self, conifold, hexagon_segments):
        with pytest.raises(InvalidBasisError):
            match_transition(conifold, ((0, 0), (1, 0), (2, 1)))
        # (1, 1) is an interior lattice point of the hexagon, not a vertex
        with pytest.raises(InvalidBasisError):
            match_transition(hexagon_segments, ((1, 1), (1, 2), (2, 2)))

    def test_basis_point_with_vanishing_coefficient_rejected(self):
        rotated = hull([(0, 0), (1, 1), (2, 0), (1, -1)])
        dec = MinkowskiDecomposition(rotated, (0, 0), (seg((1, 1)), seg((1, -1))))
        with pytest.raises(InvalidBasisError):
            match_transition(dec, ((0, 0), (1, 0), (1, 1)))
        # and no default basis avoids the vanishing point here
        with pytest.raises(InvalidBasisError):
            match_transition(dec)

    def test_random_decompositions_verify(self):
        rng = random.Random(61)
        checked = 0
        for _ in range(80):
            parts = [random_unimodular_simplex(rng) for _ in range(rng.randint(1, 3))]
            p = minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2)
            dec = MinkowskiDecomposition(p, (0, 0), tuple(parts))
            try:
                report = match_transition(dec)
            except InvalidBasisError:
                # degenerate polytope, or a vanishing coefficient on every chain
                continue
            assert report.verified
            assert all(q >= 0 for q in report.specialization.values())
            for v in p.vertices:
                if v in report.specialization and report.character.weight(v) == 1:
                    assert report.specialization[v] == 1
            checked += 1
        assert checked >= 25


class TestReportJson:
    def test_shape(self, hexagon_segments):
        data = match_transition(hexagon_segments, DP6_BASIS).to_json_dict()
        assert data["basis"] == [[0, 1], [1, 1], [1, 2]]
        assert data["character"] == {"gamma": "2/1", "alpha": ["2/1", "1/2"]}
        assert data["specialization"] == [
            {"point": [0, 0], "value": "1/2"},
            {"point": [1, 0], "value": "1/4"},
            {"point": [2, 1], "value": "1/4"},
            {"point": [2, 2], "value": "1/2"},
        ]
        assert data["verified"] is True
