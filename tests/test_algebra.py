import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from syzkit import (
    Character,
    DimensionMismatchError,
    LaurentPolynomial,
    SupportMismatchError,
    ZeroPolynomialError,
    apply_character,
    hull,
    minkowski_sum,
    newton_polytope,
    solve_character_match,
)
import parametric
from parametric import Coefficient, lift

LP = LaurentPolynomial
PLP = parametric.LaurentPolynomial


def poly(dim, terms):
    return LP(dim, {tuple(e): Fraction(c) for e, c in terms.items()})


def one_plus(dim, *exps):
    terms = {(0,) * dim: 1}
    for e in exps:
        terms[e] = 1
    return LP(dim, terms)


def random_poly(rng, dim=2, npoints=5, span=3):
    terms = {}
    for _ in range(npoints):
        e = tuple(rng.randint(-span, span) for _ in range(dim))
        terms[e] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return LP(dim, terms)


class TestArithmetic:
    def test_square_of_binomial(self):
        f = one_plus(1, (1,))
        assert f * f == poly(1, {(0,): 1, (1,): 2, (2,): 1})

    def test_three_segment_product(self):
        g = one_plus(2, (1, 0)) * one_plus(2, (0, 1)) * one_plus(2, (1, 1))
        assert g == poly(2, {
            (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2,
            (2, 1): 1, (1, 2): 1, (2, 2): 1,
        })

    def test_two_triangle_product(self):
        g = one_plus(2, (1, 0), (1, 1)) * one_plus(2, (0, 1), (1, 1))
        assert g == poly(2, {
            (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 3,
            (2, 1): 1, (1, 2): 1, (2, 2): 1,
        })

    def test_ring_axioms_on_random_inputs(self):
        rng = random.Random(19)
        for _ in range(25):
            f = random_poly(rng)
            g = random_poly(rng)
            h = random_poly(rng)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + g == g + f

    def test_pow_matches_repeated_product(self):
        f = lift(one_plus(1, (1,)))
        assert f**5 == f * f * f * f * f
        assert f**0 == PLP.constant(1, 1)

    def test_negative_exponents(self):
        f = poly(1, {(-1,): 1, (1,): 1})
        assert f * f == poly(1, {(-2,): 1, (0,): 2, (2,): 1})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            one_plus(1, (1,)) * one_plus(2, (1, 0))

    def test_evaluate(self):
        g = one_plus(2, (1, 0)) * one_plus(2, (0, 1)) * one_plus(2, (1, 1))
        assert g.evaluate((1, 1)) == 8
        assert g.evaluate((Fraction(1, 2), 2)) == Fraction(3, 2) * 3 * 2

    def test_prepend_variable(self):
        f = one_plus(1, (1,))
        lifted = f.prepend_variable(-1)
        assert lifted.support() == ((-1, 0), (-1, 1))


class TestNewtonPolytope:
    def test_binomial_segment(self):
        assert newton_polytope(one_plus(1, (1,))) == hull([(0,), (1,)])

    def test_hexagon_from_product(self):
        g = one_plus(2, (1, 0)) * one_plus(2, (0, 1)) * one_plus(2, (1, 1))
        assert newton_polytope(g) == hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])

    def test_constant_is_a_point(self):
        assert newton_polytope(LP.constant(2, 5)) == hull([(0, 0)])

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            newton_polytope(LP.zero(2))

    def test_product_rule_on_random_positive_inputs(self):
        rng = random.Random(29)
        for _ in range(25):
            f = random_poly(rng)
            g = random_poly(rng)
            assert newton_polytope(f * g) == minkowski_sum(
                newton_polytope(f), newton_polytope(g)
            )


class TestCharacter:
    def test_identity_fixes_everything(self):
        g = one_plus(2, (1, 0), (0, 1), (1, 1))
        assert apply_character(g, Character.identity(2)) == g

    def test_hexagon_rescaling(self):
        # term-by-term evaluation of this substitution gives 1/4 at z1 and at
        # z1^2*z2 (the weight is multiplicative in the exponent), even though
        # a uniform 1/2 is sometimes quoted for this family
        g = one_plus(2, (1, 0)) * one_plus(2, (0, 1)) * one_plus(2, (1, 1))
        c = Character(Fraction(1, 2), (Fraction(1, 2), Fraction(2)))
        assert apply_character(g, c) == poly(2, {
            (0, 0): Fraction(1, 2),
            (1, 0): Fraction(1, 4),
            (0, 1): 1,
            (1, 1): 1,
            (2, 1): Fraction(1, 4),
            (1, 2): 1,
            (2, 2): Fraction(1, 2),
        })

    def test_scalar_only(self):
        f = one_plus(1, (1,))
        assert apply_character(f, Character(2, (1,))) == poly(1, {(0,): 2, (1,): 2})

    def test_newton_polytope_unchanged(self):
        g = one_plus(2, (1, 0), (0, 1), (1, 1))
        c = Character(Fraction(3, 7), (Fraction(2), Fraction(5, 3)))
        assert newton_polytope(apply_character(g, c)) == newton_polytope(g)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Character(0, (1,))
        with pytest.raises(ValueError):
            Character(1, (Fraction(-1, 2),))

    def test_affine_relation_invariant(self):
        # k = (+1, -1, -1, +1) on (0,0), (1,0), (0,1), (1,1) has sum 0 and
        # sum k_v * v = 0, so the cross ratio is preserved by any character
        rng = random.Random(31)
        support = [(0, 0), (1, 0), (0, 1), (1, 1)]
        signs = [1, -1, -1, 1]

        def cross_ratio(f):
            out = Fraction(1)
            for v, k in zip(support, signs):
                out *= f.coefficient(v) ** k
            return out

        for _ in range(25):
            f = LP(2, {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in support})
            c = Character(
                Fraction(rng.randint(1, 6), rng.randint(1, 6)),
                (
                    Fraction(rng.randint(1, 6), rng.randint(1, 6)),
                    Fraction(rng.randint(1, 6), rng.randint(1, 6)),
                ),
            )
            assert cross_ratio(apply_character(f, c)) == cross_ratio(f)


class TestSolveCharacterMatch:
    def test_forward_constructed_example(self):
        f = one_plus(2, (1, 0), (0, 1), (1, 1))
        g = poly(2, {(0, 0): 4, (1, 0): 2, (0, 1): 1, (1, 1): Fraction(1, 2)})
        c = solve_character_match(f, g)
        assert c == Character(4, (Fraction(1, 2), Fraction(1, 4)))
        assert apply_character(f, c) == g

    def test_identity_recovered(self):
        f = one_plus(2, (1, 0), (0, 1), (1, 1))
        c = solve_character_match(f, f)
        assert c is not None and c.is_identity()

    def test_cross_ratio_obstruction(self):
        f = poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2})
        g = one_plus(2, (1, 0), (0, 1), (1, 1))
        assert solve_character_match(f, g) is None

    def test_non_integer_valuation_obstruction(self):
        # alpha^2 = 2 has no rational solution
        f = poly(1, {(0,): 1, (2,): 1})
        g = poly(1, {(0,): 1, (2,): 2})
        assert solve_character_match(f, g) is None

    def test_support_mismatch_raises(self):
        f = one_plus(2, (1, 0))
        g = one_plus(2, (0, 1))
        with pytest.raises(SupportMismatchError):
            solve_character_match(f, g)

    def test_round_trips_on_random_characters(self):
        rng = random.Random(37)
        for _ in range(40):
            support = {(0, 0), (1, 0), (0, 1)}
            while len(support) < 5:
                support.add((rng.randint(-2, 3), rng.randint(-2, 3)))
            f = LP(2, {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in support})
            c = Character(
                Fraction(rng.randint(1, 8), rng.randint(1, 8)),
                (
                    Fraction(rng.randint(1, 8), rng.randint(1, 8)),
                    Fraction(rng.randint(1, 8), rng.randint(1, 8)),
                ),
            )
            recovered = solve_character_match(f, apply_character(f, c))
            assert recovered == c


class TestParameters:
    def test_parameter_coefficients_multiply(self):
        f = PLP(2, {(0, 0): Coefficient.rational(1, 1), (1, 1): Coefficient.parameter(0, 1)}, ("q",))
        g = f * f
        assert g.coefficient((2, 2)).terms == {(2,): Fraction(1)}
        assert g.coefficient((1, 1)).terms == {(1,): Fraction(2)}

    def test_specialize(self):
        f = PLP(
            2,
            {(0, 0): Coefficient.rational(1, 2), (1, 0): Coefficient.parameter(0, 2),
             (0, 1): Coefficient.parameter(1, 2)},
            ("a", "b"),
        )
        got = f.specialize({"a": Fraction(1, 3), "b": 2})
        assert got == poly(2, {(0, 0): 1, (1, 0): Fraction(1, 3), (0, 1): 2})
        assert type(got) is LP  # the parameter context is gone

    def test_specialize_requires_all_parameters(self):
        f = PLP(2, {(1, 1): Coefficient.parameter(0, 1)}, ("q",))
        with pytest.raises(ValueError):
            f.specialize({})

    def test_specialization_can_cancel_terms(self):
        f = PLP(2, {(1, 1): Coefficient.parameter(0, 1)}, ("q",))
        assert f.specialize({"q": 0}).is_zero()

    def test_rational_agrees_with_the_validating_constructor(self):
        for value in (0, 3, -2, Fraction(5, 7), Fraction(0)):
            for nparams in (0, 1, 3):
                got = Coefficient.rational(value, nparams)
                assert got == Coefficient({(0,) * nparams: value})
                assert got.is_zero() == (value == 0)


class TestSubstituteExponents:
    def test_unimodular_substitution(self):
        f = lift(one_plus(2, (1, 0), (0, 1)))
        m = [[0, 1], [1, 0]]
        assert f.substitute_exponents(m) == lift(one_plus(2, (0, 1), (1, 0)))

    def test_rejects_non_unimodular(self):
        f = lift(one_plus(2, (1, 0)))
        with pytest.raises(ValueError):
            f.substitute_exponents([[2, 0], [0, 1]])


class TestSerialization:
    def test_round_trip_plain(self):
        g = one_plus(2, (1, 0)) * one_plus(2, (0, 1)) * one_plus(2, (1, 1))
        assert LP.from_json_dict(g.to_json_dict()) == g

    def test_round_trip_with_parameters_and_negatives(self):
        f = PLP(
            2,
            {
                (-1, 2): Coefficient({(1, 0): Fraction(3, 7)}),
                (0, 0): Coefficient({(0, 0): Fraction(-2, 5), (1, 1): Fraction(1)}),
            },
            ("q00", "q10"),
        )
        data = f.to_json_dict()
        assert PLP.from_json_dict(data) == f

    @pytest.mark.parametrize(
        "data",
        [
            {"dim": 1, "params": ["q"], "terms": []},
            {"dim": 1, "terms": [{"exp": [0], "coeff": {"num": 1, "den": 1, "param_exp": [1]}}]},
        ],
        ids=["params", "param_exp"],
    )
    def test_parameters_rejected(self, data):
        with pytest.raises(ValueError):
            LP.from_json_dict(data)

    def test_parametric_oracle_output_rejected(self):
        f = PLP(2, {(0, 0): Coefficient.parameter(0, 1)}, ("q",))
        with pytest.raises(ValueError):
            LP.from_json_dict(f.to_json_dict())

    @pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "string"])
    @pytest.mark.parametrize("field", ["dim", "exp", "num", "den"])
    def test_non_integers_rejected(self, bad, field):
        term = {"exp": [0], "coeff": {"num": 1, "den": 1, "param_exp": []}}
        data = {"dim": 1, "params": [], "terms": [term]}
        if field == "dim":
            data["dim"] = bad
        elif field == "exp":
            term["exp"] = [bad]
        else:
            term["coeff"][field] = bad
        with pytest.raises(TypeError):
            LP.from_json_dict(data)

    def test_terms_emitted_in_lex_order(self):
        g = one_plus(2, (1, 0), (0, 1))
        exps = [tuple(t["exp"]) for t in g.to_json_dict()["terms"]]
        assert exps == sorted(exps)


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=7)
NONZERO = RATIONALS.filter(bool)
POSITIVE = st.fractions(min_value=Fraction(1, 7), max_value=6, max_denominator=7)


@st.composite
def operands(draw):
    """Two polynomials of one rank in 1..3, a nonzero point, a character,
    a scalar and an exponent for the prepended variable."""
    dim = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * dim)
    f, g = (draw(st.dictionaries(exps, RATIONALS, max_size=6)) for _ in range(2))
    point = tuple(draw(NONZERO) for _ in range(dim))
    character = Character(draw(POSITIVE), tuple(draw(POSITIVE) for _ in range(dim)))
    return dim, f, g, point, character, draw(RATIONALS), draw(st.integers(-3, 3))


class TestAgainstParametric:
    """The Fraction-valued polynomial against the parametric oracle class."""

    @staticmethod
    def assert_same(new, old):
        assert json.dumps(new.to_json_dict()) == json.dumps(old.to_json_dict())
        assert new == old.specialize({})
        assert new.support() == old.support()
        for e in new.support() + ((7,) * new.dim,):
            assert new.coefficient(e) == old.coefficient(e).as_fraction()
        assert repr(new) == repr(old)
        assert LP.from_json_dict(new.to_json_dict()) == new
        assert LP.from_json_dict(old.to_json_dict()) == new

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(operands())
    def test_operations_agree(self, case):
        dim, f_terms, g_terms, point, character, scalar, lead = case
        f, g = LP(dim, f_terms), LP(dim, g_terms)
        old_f, old_g = PLP(dim, f_terms), PLP(dim, g_terms)
        self.assert_same(f, old_f)
        self.assert_same(f + g, old_f + old_g)
        self.assert_same(f - g, old_f - old_g)
        self.assert_same(f * g, old_f * old_g)
        self.assert_same(f.scale(scalar), old_f.scale(scalar))
        self.assert_same(f.prepend_variable(lead), old_f.prepend_variable(lead))
        self.assert_same(
            apply_character(f, character), parametric.apply_character(old_f, character)
        )
        assert f.evaluate(point) == old_f.evaluate(point)
