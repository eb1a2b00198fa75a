"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact equalities; the only tolerances are the stated runtime
budgets, asserted with wall-clock measurements.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from syzkit import (
    Character,
    DiscClass,
    InvalidBasisError,
    LaurentPolynomial,
    MinkowskiDecomposition,
    SECTOR_D0,
    SECTOR_DINF,
    apply_character,
    chamber_uv,
    dual_fan_check,
    enumerate_decompositions,
    enumerate_gw_classes,
    gw_invariant,
    hull,
    match_transition,
    minkowski_sum_all,
    newton_polytope,
    solve_character_match,
    syz_mirror,
    tropical_rays,
)
import parametric
from parametric import parameter_name, toric_family
from conftest import (
    HEXAGON_CORNERS,
    ap_decomposition,
    random_unimodular_simplex,
    seg,
    tri,
)

DP6_EXPANSION_SEGMENTS = {
    (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2,
    (2, 1): 1, (2, 2): 1, (1, 2): 1,
}
DP6_EXPANSION_TRIANGLES = {
    (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 3,
    (2, 1): 1, (2, 2): 1, (1, 2): 1,
}


def fixture_decompositions():
    hexagon = hull(HEXAGON_CORNERS)
    square = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    decs = [
        MinkowskiDecomposition(square, (0, 0), (seg((1, 0)), seg((0, 1)))),
        MinkowskiDecomposition(hexagon, (0, 0), (seg((1, 0)), seg((0, 1)), seg((1, 1)))),
        MinkowskiDecomposition(hexagon, (0, 0), (tri((1, 0), (1, 1)), tri((0, 1), (1, 1)))),
    ]
    decs.extend(ap_decomposition(p) for p in range(1, 11))
    return decs


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_ap_mirrors_are_binomial():
    start = time.perf_counter()
    for p in range(1, 11):
        segment = hull([(0,), (p + 1,)])
        decs = enumerate_decompositions(segment)
        assert len(decs) == 1
        mirror = syz_mirror(decs[0])
        expected = {(k,): Fraction(math.comb(p + 1, k)) for k in range(p + 2)}
        assert mirror.expanded.rational_terms() == expected
        one_plus_z = parametric.LaurentPolynomial(1, {(0,): 1, (1,): 1})
        assert mirror.expanded == (one_plus_z ** (p + 1)).specialize({})
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"A_p mirrors equal (1+z)^(p+1) for p=1..10 in {elapsed:.3f}s")


def test_criterion_02_conifold():
    square = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    decs = enumerate_decompositions(square)
    assert len(decs) == 1
    mirror = syz_mirror(decs[0])
    assert mirror.expanded.rational_terms() == {
        (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1,
    }
    result = match_transition(decs[0], ((0, 0), (1, 0), (0, 1)))
    assert result.verified
    assert result.character.is_identity()
    assert result.specialization == {(1, 1): Fraction(1)}
    report(2, "conifold square: one decomposition, mirror 1+z1+z2+z1z2, q=1")


def test_criterion_03_dp6_decompositions_and_mirrors():
    start = time.perf_counter()
    hexagon = hull(HEXAGON_CORNERS)
    decs = enumerate_decompositions(hexagon)
    assert len(decs) == 2
    expansions = [
        {e: int(c) for e, c in syz_mirror(d).expanded.rational_terms().items()}
        for d in decs
    ]
    assert expansions[0] == DP6_EXPANSION_SEGMENTS
    assert expansions[1] == DP6_EXPANSION_TRIANGLES
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"hexagon: exactly 2 decompositions, coefficients 2 vs 3 at z1z2, {elapsed:.3f}s")


def test_criterion_04_dp6_transition():
    hexagon = hull(HEXAGON_CORNERS)
    basis = ((0, 1), (1, 1), (1, 2))
    expected = [
        (
            (seg((1, 0)), seg((0, 1)), seg((1, 1))),
            Character(2, (Fraction(2), Fraction(1, 2))),
            {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 4),
             (2, 1): Fraction(1, 4), (2, 2): Fraction(1, 2)},
        ),
        (
            (tri((1, 0), (1, 1)), tri((0, 1), (1, 1))),
            Character(3, (Fraction(3), Fraction(1, 3))),
            {(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 9),
             (2, 1): Fraction(1, 9), (2, 2): Fraction(1, 3)},
        ),
    ]
    for summands, character, specialization in expected:
        dec = MinkowskiDecomposition(hexagon, (0, 0), summands)
        result = match_transition(dec, basis)
        assert result.verified
        assert result.character == character
        # hand-solved oracle values from the three basis equations; the
        # middle entries are squares of the corner ones, not equal to them
        assert result.specialization == specialization
        family = toric_family(hexagon, basis)
        specialized = family.specialize(
            {parameter_name(v): q for v, q in result.specialization.items()}
        )
        relating = solve_character_match(specialized, syz_mirror(dec).expanded)
        assert relating == character
    report(4, "hexagon transitions verified with specializations (1/2,1/4,1/4,1/2) and (1/3,1/9,1/9,1/3)")


def test_criterion_05_chamber_identity():
    for dec in fixture_decompositions():
        g = syz_mirror(dec).expanded.prepend_variable(0)
        for chamber in range(-1, dec.p + 1):
            u, v = chamber_uv(dec, chamber)
            assert u * v == g
    report(5, "u_l * v_l = g for every fixture and every chamber")


def test_criterion_06_gw_counting():
    for dec in fixture_decompositions():
        mirror = syz_mirror(dec)
        ones = (1,) * dec.polytope.dim
        top = enumerate_gw_classes(dec, dec.p, SECTOR_D0)
        expected = 1
        for k in dec.ks:
            expected *= 1 + k
        assert len(top) == expected
        assert mirror.expanded.evaluate(ones) == expected
        assert mirror.table.total() == expected
        admissible = {
            (sector, chamber): set(enumerate_gw_classes(dec, chamber, sector))
            for sector in (SECTOR_D0, SECTOR_DINF)
            for chamber in range(-1, dec.p + 1)
        }
        for flat in product(range(3), repeat=sum(dec.ks)):
            rows = []
            pos = 0
            for k in dec.ks:
                rows.append(flat[pos:pos + k])
                pos += k
            rows = tuple(rows)
            for sector in (SECTOR_D0, SECTOR_DINF):
                beta = DiscClass(sector, rows)
                for chamber in range(-1, dec.p + 1):
                    got = gw_invariant(dec, chamber, beta)
                    # independent restatement of admissibility
                    want = 1
                    for i, row in enumerate(rows):
                        if any(x not in (0, 1) for x in row) or sum(row) > 1:
                            want = 0
                            break
                        if any(row):
                            if sector == SECTOR_D0 and i > chamber:
                                want = 0
                                break
                            if sector == SECTOR_DINF and i <= chamber:
                                want = 0
                                break
                    assert got == want
                    assert got == (1 if beta in admissible[sector, chamber] else 0)
    report(6, "class counts match g(1,..,1) and gw_invariant matches exhaustive admissibility")


def test_criterion_07_tropical():
    hexagon = hull(HEXAGON_CORNERS)
    square = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    seg_dec = MinkowskiDecomposition(hexagon, (0, 0), (seg((1, 0)), seg((0, 1)), seg((1, 1))))
    tri_dec = MinkowskiDecomposition(hexagon, (0, 0), (tri((1, 0), (1, 1)), tri((0, 1), (1, 1))))
    coni = MinkowskiDecomposition(square, (0, 0), (seg((1, 0)), seg((0, 1))))
    assert dual_fan_check(seg_dec)
    assert dual_fan_check(tri_dec)
    assert dual_fan_check(coni)
    assert tropical_rays(tri((1, 0), (1, 1))).rays == {(0, 1), (1, -1), (-1, 0)}
    assert tropical_rays(tri((0, 1), (1, 1))).rays == {(1, 0), (-1, 1), (0, -1)}
    report(7, "dual-fan checks hold; triangle tropicalizations give the stated ray sets")


def test_criterion_08_randomized_property_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    trials = 200
    degenerate_bases = 0
    for _ in range(trials):
        parts = [random_unimodular_simplex(rng) for _ in range(rng.randint(1, 4))]
        polytope = minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2)
        dec = MinkowskiDecomposition(polytope, (0, 0), tuple(parts))

        # (a) the generating multiset is found by the enumeration
        decs = enumerate_decompositions(polytope)
        assert any(d.summands == dec.summands for d in decs)

        # (b) the Newton polytope of the mirror is the polytope
        mirror = syz_mirror(dec)
        assert newton_polytope(mirror.expanded) == polytope

        # (c) vertex coefficients are all 1
        for v in polytope.vertices:
            assert mirror.table[v] == 1

        # (d) every tabulated invariant is at least 1
        assert all(n >= 1 for n in mirror.table.entries.values())

        # (e) the dual-fan identity holds
        assert dual_fan_check(dec)

        # (f) the transition verifies for the default basis whenever one
        # exists; a degenerate polytope or vanishing coefficients on every
        # unimodular chain leave no admissible basis
        try:
            result = match_transition(dec)
        except InvalidBasisError:
            degenerate_bases += 1
        else:
            assert result.verified
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        8,
        f"{trials} random decompositions in {elapsed:.2f}s "
        f"({degenerate_bases} without an admissible basis)",
    )


def test_criterion_09_character_solver():
    rng = random.Random(4096)

    def random_fraction():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    for _ in range(100):
        support = {(0, 0), (1, 0), (0, 1), (1, 1)}
        while len(support) < 6:
            support.add((rng.randint(-2, 3), rng.randint(-2, 3)))
        f = LaurentPolynomial(2, {v: random_fraction() for v in support})
        character = Character(random_fraction(), (random_fraction(), random_fraction()))
        g = apply_character(f, character)
        assert solve_character_match(f, g) == character

        # perturb the coefficient at (1, 1): the square relation breaks and
        # no rescaling can repair it
        perturbed = dict(g.rational_terms())
        perturbed[(1, 1)] *= Fraction(3, 2)
        assert solve_character_match(f, LaurentPolynomial(2, perturbed)) is None
    report(9, "100 random characters recovered; perturbed targets rejected")
