import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from syzkit import (
    Character,
    DimensionMismatchError,
    EmptyInputError,
    LaurentPolynomial,
    SupportMismatchError,
    apply_character,
    enumerate_decompositions,
    hull,
    solve_character_match,
    syz_mirror,
)
from syzkit import intlinalg
from syzkit.algebra import _weight_pairs
from conftest import minkowski_sum, zonotope
import parametric
from parametric import Coefficient, lift, weight
from test_intlinalg import solve_integer

LP = LaurentPolynomial
PLP = parametric.LaurentPolynomial


def poly(dim, terms):
    return LP(dim, {tuple(e): Fraction(c) for e, c in terms.items()})


def one_plus(dim, *exps):
    terms = {(0,) * dim: 1}
    for e in exps:
        terms[e] = 1
    return LP(dim, terms)


def newton_polytope(f):
    return hull(f.support())


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
            assert lift(f) * (lift(g) + lift(h)) == lift(f * g) + lift(f * h)

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
        with pytest.raises(DimensionMismatchError):
            LP(2, {(1,): 1})
        with pytest.raises(DimensionMismatchError):
            apply_character(one_plus(2, (1, 0)), Character(2, (3,)))

    def test_evaluate(self):
        g = lift(one_plus(2, (1, 0)) * one_plus(2, (0, 1)) * one_plus(2, (1, 1)))
        assert g.evaluate((1, 1)) == 8
        assert g.evaluate((Fraction(1, 2), 2)) == Fraction(3, 2) * 3 * 2

    def test_prepend_variable(self):
        f = one_plus(1, (1,))
        lifted = f.prepend_variable(-1)
        assert lifted.support() == ((-1, 0), (-1, 1))
        assert f.prepend_variable(Fraction(2)) == f.prepend_variable(2)
        with pytest.raises(TypeError):
            f.prepend_variable(Fraction(1, 2))


class TestNewtonPolytope:
    """The Newton polytope is the hull of the support."""

    def test_binomial_segment(self):
        assert newton_polytope(one_plus(1, (1,))) == hull([(0,), (1,)])

    def test_hexagon_from_product(self):
        g = one_plus(2, (1, 0)) * one_plus(2, (0, 1)) * one_plus(2, (1, 1))
        assert newton_polytope(g) == hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])

    def test_constant_is_a_point(self):
        assert newton_polytope(LP(2, {(0, 0): 5})) == hull([(0, 0)])

    def test_zero_rejected(self):
        with pytest.raises(EmptyInputError):
            newton_polytope(LP(2, {}))

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
        assert apply_character(g, Character(1, (1, 1))) == g

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


# The trial-division solver that ``solve_character_match`` replaced, kept
# unchanged (but for its name) as an oracle.
def _prime_factors(n: int) -> set[int]:
    n = abs(n)
    out = set()
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.add(n)
    return out


def _valuation(q: Fraction, p: int) -> int:
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    n = q.denominator
    while n % p == 0:
        n //= p
        v -= 1
    return v


def factoring_character_match(
    f: LaurentPolynomial, g: LaurentPolynomial
) -> Character | None:
    """Exact character carrying f onto g, or None when no such rescaling exists.

    Both polynomials must have positive rational coefficients on the same
    support.  Per prime, the coefficient ratios
    log-linearize to an integer linear system in the valuations of
    (gamma, alpha); a solution must exist at every prime simultaneously.
    """
    if f.dim != g.dim:
        raise DimensionMismatchError(f"{f.dim} variables vs {g.dim}")
    support = f.support()
    if support != g.support():
        raise SupportMismatchError("the two polynomials have different supports")
    ratios = []
    for v in support:
        a = f.coefficient(v)
        b = g.coefficient(v)
        if a <= 0 or b <= 0:
            raise ValueError("positive coefficients required")
        ratios.append(b / a)
    primes: set[int] = set()
    for r in ratios:
        primes |= _prime_factors(r.numerator)
        primes |= _prime_factors(r.denominator)
    rows = [(1,) + v for v in support]
    gamma = Fraction(1)
    alpha = [Fraction(1)] * f.dim
    for p in sorted(primes):
        rhs = [_valuation(r, p) for r in ratios]
        x = solve_integer(rows, rhs)
        if x is None:
            return None
        gamma *= Fraction(p) ** x[0]
        for j in range(f.dim):
            alpha[j] *= Fraction(p) ** x[j + 1]
    character = Character(gamma, tuple(alpha))
    if apply_character(f, character) != g:
        return None
    return character


class TestSolveCharacterMatch:
    def test_forward_constructed_example(self):
        f = one_plus(2, (1, 0), (0, 1), (1, 1))
        g = poly(2, {(0, 0): 4, (1, 0): 2, (0, 1): 1, (1, 1): Fraction(1, 2)})
        c = solve_character_match(f, g)
        assert c == Character(4, (Fraction(1, 2), Fraction(1, 4)))
        assert apply_character(f, c) == g

    def test_identity_recovered(self):
        f = one_plus(2, (1, 0), (0, 1), (1, 1))
        assert solve_character_match(f, f) == Character(1, (1, 1))

    def test_cross_ratio_obstruction(self):
        f = poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2})
        g = one_plus(2, (1, 0), (0, 1), (1, 1))
        assert solve_character_match(f, g) is None

    def test_non_integer_valuation_obstruction(self):
        # alpha^2 = 2 has no rational solution
        f = poly(1, {(0,): 1, (2,): 1})
        g = poly(1, {(0,): 1, (2,): 2})
        assert solve_character_match(f, g) is None

    def test_wrong_solver_answer_is_refused(self, monkeypatch):
        """A positive answer of the solver that does not carry f onto g:
        ``apply_character``, through its power tables, shows the mismatch."""
        f = poly(2, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (-1, 2): Fraction(1, 5)})
        right = Character(Fraction(3, 2), (Fraction(2, 5), Fraction(7, 3)))
        g = apply_character(f, right)
        assert solve_character_match(f, g) == right
        for wrong in ([Fraction(3, 2), Fraction(2, 5), Fraction(7, 4)], [Fraction(2)] * 3):
            monkeypatch.setattr(intlinalg, "solve_multiplicative", lambda *args: wrong)
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


class TestCharacterMatchOnKernelOutput:
    """The wall kernel's polynomials carry int coefficients, whose ratios
    must reach the solver as exact Fractions, never as floats."""

    def test_two_decompositions_of_z32(self, monkeypatch):
        first, second = enumerate_decompositions(zonotope(3, 2))[:2]
        f, g = syz_mirror(first).expanded, syz_mirror(second).expanded
        assert {type(c) for p in (f, g) for c in p.terms.values()} == {int}
        assert f.support() == g.support()
        ratios = [Fraction(g.terms[v], f.terms[v]) for v in f.support()]
        assert ratios.count(Fraction(7, 6)) > 1
        calls = []
        solve = intlinalg.solve_multiplicative

        def recording(rows, rhs, n):
            calls.append(list(rhs))
            return solve(rows, rhs, n)

        monkeypatch.setattr(intlinalg, "solve_multiplicative", recording)
        for left, right in ((f, g), (f, f)):
            copies = (LP(left.dim, left.terms), LP(right.dim, right.terms))
            assert solve_character_match(left, right) == solve_character_match(*copies)
        assert calls[0] == calls[1] == ratios
        assert calls[2] == calls[3] == [1] * len(ratios)
        assert all(type(x) is Fraction for rhs in calls for x in rhs)
        assert solve_character_match(f, f) == Character(1, (1, 1))


POSITIVE = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))


@st.composite
def character_problems(draw):
    """(f, g) in rank 1-3 on 1-6 support points in [-3, 3]^d, which need not
    span: g is f under a character, that with one coefficient changed, f
    with ratios that are perfect powers, f with random ratios, or the zero
    polynomial twice."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("character", "perturbed", "powers", "random", "zero")))
    if kind == "zero":
        return LP(dim, {}), LP(dim, {})
    points = st.tuples(*[st.integers(-3, 3)] * dim)
    support = draw(st.lists(points, min_size=1, max_size=6, unique=True))
    f = LP(dim, {v: draw(POSITIVE) for v in support})
    if kind in ("character", "perturbed"):
        g = apply_character(f, Character(draw(POSITIVE), tuple(draw(POSITIVE) for _ in range(dim))))
        if kind == "perturbed":
            v = draw(st.sampled_from(support))
            g = LP(dim, {**g.terms, v: g.terms[v] * draw(POSITIVE)})
        return f, g
    if kind == "powers":
        k = draw(st.integers(2, 4))
        return f, LP(dim, {v: f.terms[v] * draw(POSITIVE) ** k for v in support})
    return f, LP(dim, {v: draw(POSITIVE) for v in support})


class TestCharacterMatchAgainstFactoring:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(character_problems())
    def test_matches_the_factoring_solver(self, problem):
        f, g = problem
        assert solve_character_match(f, g) == factoring_character_match(f, g)

    def test_checks_are_kept(self):
        with pytest.raises(DimensionMismatchError):
            solve_character_match(one_plus(1, (1,)), one_plus(2, (1, 0)))
        with pytest.raises(ValueError):
            solve_character_match(poly(1, {(0,): 1, (1,): -1}), poly(1, {(0,): 1, (1,): -2}))
        assert solve_character_match(LP(2, {}), LP(2, {})) == Character(1, (1, 1))


@st.composite
def large_exponent_problems(draw):
    """(f, g) in rank 1 or 2, as in 1 + z + z^E: the origin, the unit
    vectors, up to two points in [-3, 3]^d and one to three far points in
    [0, 10^6]^d.  g is f under a character with alpha_j = 1 wherever some
    |v_j| exceeds 12, that with one coefficient changed, f with
    perfect-power ratios, or f with random ratios.

    The near points come first in lexicographic order, so they hold every
    pivot of the column reduction and the far points land in rows without
    one, where only exponents grow.  The origin pins gamma to a small
    ratio, so no weight either solver forms is a large number."""
    dim = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(("character", "perturbed", "powers", "random")))
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    near = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=2))
    far = draw(st.lists(st.tuples(*[st.integers(0, 10**6)] * dim), min_size=1, max_size=3))
    support = list(dict.fromkeys([(0,) * dim, *unit, *near, *far]))
    f = LP(dim, {v: draw(POSITIVE) for v in support})
    if kind in ("character", "perturbed"):
        alpha = tuple(
            draw(POSITIVE) if max(abs(v[j]) for v in support) <= 12 else Fraction(1)
            for j in range(dim)
        )
        g = apply_character(f, Character(draw(POSITIVE), alpha))
        if kind == "perturbed":
            v = draw(st.sampled_from(support))
            g = LP(dim, {**g.terms, v: g.terms[v] * draw(POSITIVE)})
        return f, g
    if kind == "powers":
        k = draw(st.integers(2, 4))
        return f, LP(dim, {v: f.terms[v] * draw(POSITIVE) ** k for v in support})
    return f, LP(dim, {v: draw(POSITIVE) for v in support})


class TestCharacterMatchBound:
    """A row without a pivot is checked on exponent vectors over a coprime
    base, so exponents far past the coefficients' size cost nothing."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(large_exponent_problems())
    def test_matches_the_factoring_solver(self, problem):
        f, g = problem
        assert solve_character_match(f, g) == factoring_character_match(f, g)

    def test_no_match_at_a_huge_exponent_is_found_at_once(self):
        e = 10**8
        f = one_plus(1, (1,), (e,))
        g = poly(1, {(0,): 1, (1,): 2, (e,): 3})
        times = []
        for _ in range(3):
            start = time.perf_counter()
            assert solve_character_match(f, g) is None
            times.append(time.perf_counter() - start)
        assert min(times) < 0.01

    def test_a_match_at_a_huge_exponent_is_still_found(self):
        e = 10**5
        f = one_plus(1, (1,), (e,))
        g = poly(1, {(0,): 1, (1,): 2, (e,): 2**e})
        assert solve_character_match(f, g) == Character(1, (Fraction(2),))


class TestCharacterMatchFarPoints:
    """Far points that take pivots leave large entries left of later
    pivots; those multiply exponents, and no large power is formed."""

    def test_fuzzed_far_support_is_no_match(self):
        # Found by a strategy with far points at negative coordinates; the
        # solver on rational values did not finish in 120 s.
        support = [(-108687, 10**6), (0, 0), (272986, 501)]
        f = LP(2, dict(zip(support, (Fraction(38, 7), Fraction(8, 3), Fraction(3, 2)))))
        g = LP(2, dict(zip(support, (Fraction(2), Fraction(19, 4), Fraction(8, 5)))))
        start = time.perf_counter()
        assert solve_character_match(f, g) is None
        assert time.perf_counter() - start < 1.0
        assert factoring_character_match(f, g) is None

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_drawn_character_is_recovered(self, data):
        dim = data.draw(st.integers(1, 2))
        coordinate = st.integers(-10**3, 10**3)
        support = data.draw(st.lists(st.tuples(*[coordinate] * dim), min_size=dim + 1,
                                     max_size=5, unique=True))
        # The exponent rows (1, v) have full rank, so the character is unique.
        diffs = [tuple(a - b for a, b in zip(v, support[0])) for v in support[1:]]
        assume(dim == 1 or any(u[0] * w[1] != u[1] * w[0] for u in diffs for w in diffs))
        f = LP(dim, {v: data.draw(POSITIVE) for v in support})
        character = Character(data.draw(POSITIVE), tuple(data.draw(POSITIVE) for _ in range(dim)))
        g = apply_character(f, character)
        start = time.perf_counter()
        assert solve_character_match(f, g) == character
        assert time.perf_counter() - start < 1.0


SCALES = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))


class TestWeightPairs:
    """The integer pairs of ``_weight_pairs`` against the per-point oracle
    ``parametric.weight``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_character_weight(self, data):
        dim = data.draw(st.integers(1, 2))
        character = Character(data.draw(SCALES), tuple(data.draw(SCALES) for _ in range(dim)))
        coordinate = st.one_of(st.integers(-6, 6), st.integers(-300, 300))
        points = data.draw(st.lists(st.tuples(*[coordinate] * dim), max_size=30, unique=True))
        pairs = _weight_pairs(character, points)
        assert list(pairs) == points
        for v, (num, den) in pairs.items():
            assert den > 0
            assert Fraction(num, den) == weight(character, v)

    def test_dense_lattice_points(self):
        character = Character(Fraction(3, 2), (Fraction(2, 5), Fraction(7, 3)))
        points = [(x, y) for x in range(-4, 5) for y in range(-3, 6)]
        pairs = _weight_pairs(character, points)
        assert {v: Fraction(*p) for v, p in pairs.items()} == {
            v: weight(character, v) for v in points
        }


class TestCharacterMatchCost:
    """Coefficient ratios with two large prime factors, which trial division
    would never finish; the exact roots take well under a second."""

    N = (2**61 - 1) * (2**89 - 1)

    def timed(self, f, g):
        start = time.perf_counter()
        result = solve_character_match(f, g)
        assert time.perf_counter() - start < 1.0
        return result

    def test_character_on_a_segment(self):
        got = self.timed(one_plus(1, (1,)), poly(1, {(0,): 1, (1,): self.N}))
        assert got == Character(1, (self.N,))

    def test_square_root_at_a_pivot(self):
        got = self.timed(one_plus(1, (2,)), poly(1, {(0,): 1, (2,): self.N**2}))
        assert got == Character(1, (self.N,))

    def test_inexact_root_is_no_match(self):
        assert self.timed(one_plus(1, (2,)), poly(1, {(0,): 1, (2,): 2 * self.N**2})) is None


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
        assert f.specialize({"q": 0}) == LP(2, {})

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

    @pytest.mark.parametrize("num", [1, 0, -3])
    def test_zero_denominator_rejected(self, num):
        term = {"exp": [0], "coeff": {"num": num, "den": 0, "param_exp": []}}
        with pytest.raises(ValueError, match="denominator 0"):
            LP.from_json_dict({"dim": 1, "params": [], "terms": [term]})

    def test_terms_emitted_in_lex_order(self):
        g = one_plus(2, (1, 0), (0, 1))
        exps = [tuple(t["exp"]) for t in g.to_json_dict()["terms"]]
        assert exps == sorted(exps)


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=7)
POSITIVE = st.fractions(min_value=Fraction(1, 7), max_value=6, max_denominator=7)


@st.composite
def operands(draw):
    """Two polynomials of one rank in 1..3, a character and an exponent for
    the prepended variable."""
    dim = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * dim)
    f, g = (draw(st.dictionaries(exps, RATIONALS, max_size=6)) for _ in range(2))
    character = Character(draw(POSITIVE), tuple(draw(POSITIVE) for _ in range(dim)))
    return dim, f, g, character, draw(st.integers(-3, 3))


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
        dim, f_terms, g_terms, character, lead = case
        f, g = LP(dim, f_terms), LP(dim, g_terms)
        old_f, old_g = PLP(dim, f_terms), PLP(dim, g_terms)
        self.assert_same(f, old_f)
        self.assert_same(f * g, old_f * old_g)
        self.assert_same(f.prepend_variable(lead), old_f.prepend_variable(lead))
        self.assert_same(
            apply_character(f, character), parametric.apply_character(old_f, character)
        )
