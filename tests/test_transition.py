import functools
import json
import random
import sys
import time
from fractions import Fraction
from itertools import accumulate, product
from math import prod

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from syzkit import (
    BasisSimplex,
    Character,
    InvalidBasisError,
    MinkowskiDecomposition,
    VerificationFailedError,
    apply_character,
    enumerate_decompositions,
    hull,
    lattice_points,
    match_transition,
    solve_character_match,
    syz_mirror,
)
from syzkit import transition as transition_module
from conftest import (
    HEXAGON_CORNERS,
    ap_decomposition,
    brute_det,
    minkowski_sum_all,
    random_unimodular_simplex,
    seg,
    sum_decomposition,
    unimodular_simplices,
    zonotope,
)
from listing_match import listing_match
from parametric import parameter_name, toric_family, weight
from root_solver import solve_multiplicative as solve_by_roots
from syzkit.intlinalg import solve_multiplicative
from syzkit.lattice import _column_bounds, vec_add

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

    @pytest.mark.parametrize("rank", [0, 3, 40])
    def test_rank_outside_one_and_two_rejected_before_det(self, hexagon_triangles, rank):
        # 0, e1, e1 + e2, ...: consecutive differences are the unit vectors
        points = [tuple(int(j < i) for j in range(rank)) for i in range(rank + 1)]
        with pytest.raises(InvalidBasisError, match="rank 1 or 2"):
            BasisSimplex(points)
        with pytest.raises(InvalidBasisError, match="rank 1 or 2"):
            match_transition(hexagon_triangles, points)

    @pytest.mark.parametrize("dim, bound", [(1, 3), (2, 2)])
    def test_accepts_exactly_a_unit_determinant(self, dim, bound):
        # Every chain of dim + 1 points with entries in [-bound, bound].
        coords = list(product(range(-bound, bound + 1), repeat=dim))
        accepted = 0
        for points in product(coords, repeat=dim + 1):
            diffs = [[b - a for a, b in zip(p, q)] for p, q in zip(points, points[1:])]
            if abs(brute_det(diffs)) == 1:
                assert BasisSimplex(points).points == points
                accepted += 1
            else:
                with pytest.raises(InvalidBasisError, match="not a lattice basis"):
                    BasisSimplex(points)
        assert accepted

    def test_degenerate_polytope_has_no_basis(self):
        flat = hull([(0, 0), (3, 0)])
        with pytest.raises(InvalidBasisError):
            BasisSimplex.default_for(flat)

    @pytest.mark.parametrize("fails, match", [
        (lambda: BasisSimplex(()), "empty basis"),
        (lambda: BasisSimplex(((0,), (1,))).validate_for(hull([(0, 0), (1, 1)])),
         "rank differs"),
        (lambda: BasisSimplex.default_for(hull([(0, 0), (2, 0)])), "no unimodular chain"),
        (lambda: BasisSimplex.default_for(hull([(5,)])), "no unimodular chain"),
    ], ids=["empty", "basis of the wrong rank", "flat segment", "point in rank 1"])
    def test_error_paths(self, fails, match):
        with pytest.raises(InvalidBasisError, match=match):
            fails()


class TestDefaultBasis:
    """``match_transition`` draws its default basis from g's support, which
    the Newton check keeps in P, starting at P's first vertex, and wraps it
    with ``_of``: it must pass ``validate_for`` and the public constructor."""

    CASES = {
        "A_p": lambda: [ap_decomposition(p) for p in range(12)],
        "Z(4,3)": lambda: enumerate_decompositions(zonotope(4, 3)),
        "Z(5,2)": lambda: enumerate_decompositions(zonotope(5, 2)),
        "Z(4,5)": lambda: enumerate_decompositions(zonotope(4, 5)),
        "hexagon": lambda: enumerate_decompositions(hull(HEXAGON_CORNERS)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_passes_validate_for_and_the_constructor(self, case):
        decs = self.CASES[case]()
        assert decs
        for dec in decs:
            basis = match_transition(dec).basis
            basis.validate_for(dec.polytope)
            assert BasisSimplex(basis.points) == basis  # the tuples the constructor makes
            assert basis.points[0] == dec.polytope.vertices[0]


def set_validate(basis, polytope):
    """The basis validation that tested each point against a set of all of
    P's lattice points, kept as the oracle of the column-bound one."""
    if basis.dim != polytope.dim:
        raise InvalidBasisError("basis rank differs from the polytope rank")
    pts = set(lattice_points(polytope))
    for p in basis.points:
        if p not in pts:
            raise InvalidBasisError(f"{p} is not a lattice point of the polytope")
    if basis.points[0] not in polytope.vertices:
        raise InvalidBasisError(
            f"first basis point {basis.points[0]} is not a vertex of the polytope"
        )


def verdict(check, *args):
    """The message ``check`` raises InvalidBasisError with, or None."""
    try:
        check(*args)
    except InvalidBasisError as exc:
        return str(exc)
    return None


# Every pair of rows with entries in [-2, 2] and determinant +-1.
UNIMODULAR_PAIRS = [
    (u, w)
    for u in product(range(-2, 3), repeat=2)
    for w in product(range(-2, 3), repeat=2)
    if abs(u[0] * w[1] - u[1] * w[0]) == 1
]


@st.composite
def bases_and_polytopes(draw):
    """A polytope of rank 1 or 2 from up to six points in [-5, 5]^d and a
    basis starting at one of its vertices or anywhere near it."""
    dim = draw(st.integers(1, 2))
    coord = st.integers(-5, 5)
    polytope = hull(draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=6)))
    start = draw(st.one_of(st.sampled_from(polytope.vertices), st.tuples(*[coord] * dim)))
    if dim == 1:
        diffs = [(draw(st.sampled_from([1, -1])),)]
    else:
        diffs = draw(st.sampled_from(UNIMODULAR_PAIRS))
    points = [start]
    for diff in diffs:
        points.append(tuple(a + b for a, b in zip(points[-1], diff)))
    return BasisSimplex(points), polytope


class TestValidation:
    """``validate_for`` tests each basis point against its column's bounds,
    listing no lattice points, with the messages of the set-based test."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(bases_and_polytopes())
    def test_matches_the_set_oracle(self, case):
        basis, polytope = case
        assert verdict(basis.validate_for, polytope) == verdict(set_validate, basis, polytope)

    def test_every_message_is_reached(self, hexagon):
        for points, message in [
            (DP6_BASIS, None),
            (((0, 0), (1, 0), (2, 1)), None),
            (((0, 0), (1, 0), (2, -1)), "(2, -1) is not a lattice point of the polytope"),
            (((0, 0), (-1, 0), (-1, 1)), "(-1, 0) is not a lattice point of the polytope"),
            (((1, 1), (1, 2), (2, 2)), "first basis point (1, 1) is not a vertex of the polytope"),
            (((0,), (1,)), "basis rank differs from the polytope rank"),
        ]:
            basis = BasisSimplex(points)
            assert verdict(basis.validate_for, hexagon) == message
            assert verdict(set_validate, basis, hexagon) == message
        segment = hull([(2,), (5,)])
        assert verdict(BasisSimplex(((2,), (3,))).validate_for, segment) is None
        assert verdict(BasisSimplex(((5,), (6,))).validate_for, segment) == (
            "(6,) is not a lattice point of the polytope"
        )

    def test_lists_no_lattice_points(self, monkeypatch, hexagon):
        def refuse(polytope):
            raise AssertionError("lattice points listed")

        monkeypatch.setattr(transition_module, "lattice_points", refuse)
        BasisSimplex(DP6_BASIS).validate_for(hexagon)

    def test_a_match_refuses_a_basis_with_the_same_message(self, hexagon_triangles):
        """``match_transition`` validates a given basis on the column bounds
        it walked itself, with ``validate_for``'s verdict and message."""
        hexagon = hexagon_triangles.polytope
        for points in (DP6_BASIS, ((0, 0), (1, 0), (2, -1)), ((0, 0), (-1, 0), (-1, 1)),
                       ((1, 1), (1, 2), (2, 2)), ((0,), (1,))):
            basis = BasisSimplex(points)
            want = verdict(basis.validate_for, hexagon)
            assert verdict(match_transition, hexagon_triangles, basis) == want
            assert verdict(basis._validate_in, hexagon, list(_column_bounds(hexagon))) == want


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
    @pytest.mark.parametrize("basis", [None, DP6_BASIS], ids=["default", "paper"])
    def test_lists_no_lattice_points(self, monkeypatch, hexagon_triangles, basis):
        """The walk reads P's column bounds, as the Newton check and the basis
        validation do, and the default basis is chosen from the support of g."""
        calls = []
        for module in [m for name, m in sys.modules.items() if name.startswith("syzkit")]:
            if hasattr(module, "lattice_points"):
                def counted(polytope, real=module.lattice_points):
                    calls.append(polytope)
                    return real(polytope)

                monkeypatch.setattr(module, "lattice_points", counted)
        assert match_transition(hexagon_triangles, basis).verified
        assert calls == []

    @pytest.mark.parametrize("basis", [None, DP6_BASIS], ids=["default", "paper"])
    def test_walks_the_chains_once(self, monkeypatch, hexagon_triangles, basis):
        """One walk of P's column bounds serves the Newton check, the walk and
        the validation of a given basis."""
        calls = []
        for module in [m for name, m in sys.modules.items() if name.startswith("syzkit")]:
            if hasattr(module, "_column_bounds"):
                def counted(polytope, real=module._column_bounds):
                    calls.append(polytope)
                    return real(polytope)

                monkeypatch.setattr(module, "_column_bounds", counted)
        assert match_transition(hexagon_triangles, basis).verified
        assert calls == [hexagon_triangles.polytope]

    def test_conifold_is_the_identity_match(self, conifold):
        report = match_transition(conifold, ((0, 0), (1, 0), (0, 1)))
        assert report.verified
        assert report.character == Character(1, (1, 1))
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
            assert weight(report.character, v) == table[v]

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
                if v in report.specialization and weight(report.character, v) == 1:
                    assert report.specialization[v] == 1
            checked += 1
        assert checked >= 25


ZONOTOPES = [(4, 5), (5, 3), (6, 2), (3, 3), (2, 7)]
SUMMANDS = unimodular_simplices(2, bound=2)


def hexagon_with_sides(a, b, c):
    """The hexagon with sides a, b and c along (1, 0), (0, 1) and (1, 1)."""
    return hull([(0, 0), (a, 0), (a + c, c), (a + c, b + c), (c, b + c), (0, b)])


@functools.cache
def decompositions_of(polytope) -> list:
    return enumerate_decompositions(polytope)


@st.composite
def match_cases(draw):
    """A decomposition and a basis for its match.  The decomposition is A_p,
    one of a zonotope or of a hexagon with sides 1 to 4, or a sum of one to
    four unimodular simplices; the basis is None (the default), the paper's,
    or a unimodular chain from a vertex of P, inside P where one exists."""
    kind = draw(st.sampled_from(["A_p", "zonotope", "hexagon", "sum"]))
    if kind == "A_p":
        dec = ap_decomposition(draw(st.integers(0, 39)))
    elif kind == "sum":
        dec = sum_decomposition(draw(st.lists(st.sampled_from(SUMMANDS), min_size=1, max_size=4)))
    else:
        polytope = (
            zonotope(*draw(st.sampled_from(ZONOTOPES))) if kind == "zonotope"
            else hexagon_with_sides(*draw(st.tuples(*[st.integers(1, 4)] * 3)))
        )
        dec = draw(st.sampled_from(decompositions_of(polytope)))
    polytope = dec.polytope
    choice = draw(st.sampled_from(["default", "given", "paper"][: polytope.dim + 1]))
    if choice != "given":
        return dec, None if choice == "default" else DP6_BASIS
    start = draw(st.sampled_from(polytope.vertices))
    steps = UNIMODULAR_PAIRS if polytope.dim == 2 else [((1,),), ((-1,),)]
    chains = [list(accumulate(diffs, vec_add, initial=start)) for diffs in steps]
    inside = set(lattice_points(polytope))
    return dec, draw(st.sampled_from([c for c in chains if inside.issuperset(c)] or chains))


def outcome(match, decomposition, basis):
    """The report of a match, with its JSON text, its keys in order and the
    types of its values, or the type and text of the error it raised."""
    try:
        report = match(decomposition, basis)
    except (InvalidBasisError, VerificationFailedError) as exc:
        return type(exc), str(exc)
    values = report.specialization
    return report, json.dumps(report.to_json_dict()), list(values), {type(q) for q in values.values()}


class TestAgainstTheListingMatch:
    """The column walk against ``listing_match``, which lists P's lattice
    points and reads every n_v from the table: equal reports with the same
    JSON, or the same error; ``Fraction`` values, ``Fraction(0)`` where g
    misses a point, in lexicographic key order."""

    def assert_same(self, dec, basis) -> bool:
        """Check the walk against the oracle on one case, and return whether
        its report has a point with q_v = 0."""
        got = outcome(match_transition, dec, basis)
        assert got == outcome(listing_match, dec, basis)
        if isinstance(got[0], type):
            return False
        _, _, keys, types = got
        assert keys == sorted(keys) and types <= {Fraction}
        return 0 in got[0].specialization.values()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(match_cases())
    def test_drawn_cases(self, case):
        if self.assert_same(*case):
            event("q_v = 0 at some point")

    def test_corpus(self):
        """Every decomposition of five zonotopes and of the hexagons with
        sides 1 to 4, A_0 to A_39 and 300 random sums at the default basis,
        and the paper's hexagon at the paper basis."""
        rng = random.Random(5)
        cases = [(d, None) for m, n in ZONOTOPES for d in decompositions_of(zonotope(m, n))]
        cases += [
            (d, None)
            for sides in product(range(1, 5), repeat=3)
            for d in decompositions_of(hexagon_with_sides(*sides))
        ]
        cases += [(ap_decomposition(p), None) for p in range(40)]
        cases += [
            (sum_decomposition([random_unimodular_simplex(rng) for _ in range(rng.randint(1, 4))]), None)
            for _ in range(300)
        ]
        cases += [(d, DP6_BASIS) for d in decompositions_of(hull(HEXAGON_CORNERS))]
        zeros = sum(self.assert_same(dec, basis) for dec, basis in cases)
        assert len(cases) == 568 and zeros == 91


@st.composite
def basis_problems(draw):
    """A basis simplex of rank 1 or 2, as a translation followed by the rows
    of a product of elementary matrices, with coordinates up to 10^3, and
    positive integer targets at its points."""
    dim = draw(st.integers(1, 2))
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, dim - 1))
        kind = draw(st.sampled_from(("swap", "negate", "add")))
        if kind == "negate":
            rows[i] = [-x for x in rows[i]]
        elif dim == 2 and kind == "swap":
            rows.reverse()
        elif dim == 2:
            q = draw(st.integers(-3, 3))
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[1 - i])]
    points = [tuple(draw(st.integers(-10**3, 10**3)) for _ in range(dim))]
    for row in rows:
        points.append(tuple(a + b for a, b in zip(points[-1], row)))
    assume(all(abs(x) <= 10**3 for p in points for x in p))
    targets = draw(st.lists(st.integers(1, 60), min_size=dim + 1, max_size=dim + 1))
    return tuple(points), targets


class TestBasisCharacter:
    """The closed-form character at a basis simplex against the two
    multiplicative solvers: the column-reduction one in ``intlinalg`` and the
    exact-root one it replaced, in ``tests/root_solver.py``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(basis_problems())
    def test_matches_both_solvers(self, problem):
        points, targets = problem
        BasisSimplex(points)  # the differences are unimodular
        character = transition_module._basis_character(points, targets)
        got = [character.gamma, *character.alpha]
        assert all(type(x) is Fraction for x in got)
        rows = [(1, *v) for v in points]
        assert got == solve_multiplicative(rows, targets, len(rows))
        assert got == solve_by_roots(rows, targets, len(rows))
        for v, n in zip(points, targets):
            assert weight(character, v) == n


    def test_far_basis_equals_the_root_solver(self):
        """A basis 1000 steps out: gamma has 2,468,085 bits, and the closed
        form that multiplied and divided Fractions took 1.05 s to reduce it."""
        points = ((1000, -1000), (1031, -968), (1061, -937))
        targets = [997, 991, 983]
        BasisSimplex(points)
        start = time.perf_counter()
        character = transition_module._basis_character(points, targets)
        elapsed = time.perf_counter() - start
        got = [character.gamma, *character.alpha]
        assert got == solve_by_roots([(1, *v) for v in points], targets, 3)
        gamma = character.gamma
        assert gamma.numerator.bit_length() + gamma.denominator.bit_length() == 2468085
        assert elapsed < 5

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(1, 10**4), st.integers(-600, 600)), min_size=1, max_size=3
        )
    )
    def test_monomial_matches_fraction_powers(self, terms):
        """``_monomial`` against a product of ``Fraction`` powers, on bases
        that need not be coprime, exponents on both sides of 16 among them."""
        bases, exponents = zip(*terms)
        got = transition_module._monomial(bases, exponents)
        assert type(got) is Fraction
        assert got == prod(Fraction(b) ** e for b, e in terms)


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
