import json
import pickle
import random
from collections import Counter
from itertools import chain, combinations, combinations_with_replacement, groupby, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from syzkit import (
    DEFAULT_SEARCH_BUDGET,
    DimensionMismatchError,
    MinkowskiDecomposition,
    OutputTooLargeError,
    SearchBudgetExceededError,
    SyzkitError,
    UnimodularSimplex,
    canonical_summand,
    cayley_cone,
    decomposition_from_json_dict,
    edge_profile,
    enumerate_decompositions,
    hull,
    is_unimodular_simplex,
    lattice_points,
    summand_from_vertices,
    syz_mirror,
    verify_decomposition,
)
from syzkit import lattice, minkowski
from syzkit.lattice import IntVec, cross, vec_add, vec_neg, vec_sub
from syzkit.minkowski import summand_sort_key
from conftest import (
    HEXAGON_CORNERS,
    ap_decomposition,
    assert_kernels_keep_runs,
    minkowski_sum_all,
    random_unimodular_simplex,
    recorded_runs,
    seg,
    tri,
    zonotope,
)


def sort_key(dec):
    """The summand sort keys of a decomposition in summand order, from its
    runs: the oracle of the order the search returns its results in."""
    return tuple(chain.from_iterable((summand_sort_key(s),) * m for s, m in dec._runs))


def brute_decompositions(polytope):
    """Exhaustive multiset search, independent of both edge-budget searches.

    Candidate simplices are built from differences of lattice points; every
    multiset whose summand perimeters add to the polytope's is checked by an
    exact Minkowski sum.
    """
    base = polytope.translate(tuple(-x for x in polytope.lexmin))
    pts = lattice_points(base)
    diffs = {
        tuple(a - b for a, b in zip(p, q))
        for p, q in permutations(pts, 2)
    }
    candidates = set()
    for u in diffs:
        try:
            candidates.add(summand_from_vertices(base.dim, ((0,) * base.dim, u)))
        except ValueError:
            pass
    if base.dim == 2:
        for u, v in combinations(sorted(diffs), 2):
            if abs(u[0] * v[1] - u[1] * v[0]) == 1:
                candidates.add(summand_from_vertices(2, ((0, 0), u, v)))
    candidates = sorted(candidates, key=lambda s: (s.k, s.generators))
    total_perimeter = sum(edge_profile(base).values())
    results = []
    for size in range(0, total_perimeter // 2 + 1):
        for combo in combinations_with_replacement(candidates, size):
            if sum(s.k + 1 for s in combo) != total_perimeter:
                continue
            if minkowski_sum_all((hull(s.vertex_set()) for s in combo), base.dim) == base:
                results.append(MinkowskiDecomposition(base, polytope.lexmin, combo))
    results.sort(key=sort_key)
    return results


def _candidate_summands(dim, profile):
    """Unimodular simplices whose counterclockwise edges fit the polytope's
    edge directions: segments need both antipodal directions, triangles need
    three directions summing to zero with unit determinant."""
    dirs = set(profile)
    zero = (0,) * dim
    found = set()
    for u in dirs:
        if vec_neg(u) in dirs:
            found.add(summand_from_vertices(dim, (zero, u)))
    if dim == 2:
        for a, b in combinations(sorted(dirs), 2):
            if abs(cross(a, b)) != 1:
                continue
            if vec_neg(vec_add(a, b)) not in dirs:
                continue
            found.add(summand_from_vertices(dim, (zero, a, vec_add(a, b))))
    return sorted(found, key=summand_sort_key)


def backtrack_decompositions(polytope, budget=None):
    """The summand-by-summand backtracking search that the triangle-multiplicity
    search replaced, kept as an oracle: it spends the edge budget one summand
    at a time, with every candidate segment and triangle, and recurses once
    per summand."""
    max_nodes = DEFAULT_SEARCH_BUDGET if budget is None else int(budget)
    d = polytope.dim
    shift = polytope.lexmin
    base = polytope.translate(vec_neg(shift))
    profile = edge_profile(base)
    if not profile:
        return [MinkowskiDecomposition(base, shift, ())]
    candidates = _candidate_summands(d, profile)
    costs = [edge_profile(hull(c.vertex_set())) for c in candidates]
    remaining = dict(profile)
    found = []
    chosen = []
    nodes = 0

    def search(start, left):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise SearchBudgetExceededError(
                f"decomposition search exceeded {max_nodes} nodes"
            )
        if left == 0:
            found.append(MinkowskiDecomposition(base, shift, tuple(chosen)))
            return
        for idx in range(start, len(candidates)):
            cost = costs[idx]
            if any(remaining.get(e, 0) < c for e, c in cost.items()):
                continue
            for e, c in cost.items():
                remaining[e] -= c
            chosen.append(candidates[idx])
            search(idx, left - sum(cost.values()))
            chosen.pop()
            for e, c in cost.items():
                remaining[e] += c

    search(0, sum(profile.values()))
    found.sort(key=sort_key)
    return found


def full_walk_decompositions(polytope):
    """The triangle-multiplicity walk that forced multiplicities replaced,
    kept as an oracle: it tries every multiplicity ``0..top`` of every
    triangle, even where a settling pair leaves one choice, and sorts its
    results by run key.  Returns the results and the nodes it visited."""
    d = polytope.dim
    shift = polytope.lexmin
    base = polytope.translate(vec_neg(shift))
    left = edge_profile(base)
    triangles = minkowski._unimodular_triangles(left) if d == 2 else []
    units = [u for u in left if u > vec_neg(u)]
    types = [summand_from_vertices(d, ((0, 0), a, vec_add(a, b))) for a, b, _ in triangles]
    types += [UnimodularSimplex(d, (u,)) for u in units]
    keys = [summand_sort_key(s) for s in types]
    order = sorted(range(len(types)), key=keys.__getitem__)
    counts = [0] * len(types)
    last = {e: i for i, t in enumerate(triangles, 1) for e in t}
    settle = [[] for _ in range(len(triangles) + 1)]
    for u in left:
        settle[max(last.get(u, 0), last.get(vec_neg(u), 0))].append((u, vec_neg(u)))
    found = []
    nodes = 0

    def place(i):
        nonlocal nodes
        if any(left[u] != left.get(nu, 0) for u, nu in settle[i]):
            return
        if i == len(triangles):
            for j, u in enumerate(units, len(triangles)):
                counts[j] = left[u]
            runs = [(t, counts[t]) for t in order if counts[t]]
            dec = MinkowskiDecomposition(base, shift, [types[t] for t, m in runs for _ in range(m)])
            found.append((tuple((keys[t], -m) for t, m in runs), dec))
            return
        edges = triangles[i]
        top = min(left[e] for e in edges)
        for m in range(top + 1):
            nodes += 1
            if m:
                for e in edges:
                    left[e] -= 1
                counts[i] = m
            place(i + 1)
        for e in edges:
            left[e] += top
        counts[i] = 0

    place(0)
    found.sort(key=lambda pair: pair[0])
    return [dec for _, dec in found], nodes


class PerSummandDecomposition(MinkowskiDecomposition):
    """``MinkowskiDecomposition`` with the validation that the once-per-type
    check replaced, kept as an oracle: it canonicalises, rank-checks and
    hulls every summand, repeated copies included."""

    def __post_init__(self):
        object.__setattr__(self, "translation", tuple(int(x) for x in self.translation))
        summands = tuple(
            sorted((canonical_summand(s) for s in self._runs), key=summand_sort_key)
        )
        d = self.polytope.dim
        if self.polytope.lexmin != (0,) * d:
            raise ValueError(
                "decomposition polytope must have its lexicographic minimum at the origin"
            )
        if len(self.translation) != d:
            raise DimensionMismatchError("translation point has the wrong rank")
        for s in summands:
            if s.dim != d:
                raise DimensionMismatchError("summand rank differs from the polytope rank")
        total: dict[IntVec, int] = {}
        for s in summands:
            for e, n in edge_profile(hull(s.vertex_set())).items():
                total[e] = total.get(e, 0) + n
        if total != edge_profile(self.polytope):
            raise ValueError("summands do not sum to the polytope")
        object.__setattr__(self, "_runs", [(s, len([*g])) for s, g in groupby(summands)])


def unimodular_simplices(dim, lo=-3, hi=3):
    """Every unimodular segment and, in rank two, triangle with generators in
    [lo, hi]^dim, rooted at the origin but not at a lexicographic minimum."""
    box = [v for v in product(range(lo, hi + 1), repeat=dim) if any(v)]
    gens = [(u,) for u in box]
    if dim == 2:
        gens += list(combinations(box, 2))
    return [UnimodularSimplex(dim, g) for g in gens if is_unimodular_simplex(g)]


SIMPLICES = {dim: unimodular_simplices(dim) for dim in (1, 2)}


def pinned(polytope):
    return polytope.translate(vec_neg(polytope.lexmin))


class TestVerify:
    def test_hexagon_three_segments(self, hexagon):
        assert verify_decomposition(hexagon, (seg((1, 0)), seg((0, 1)), seg((1, 1))))

    def test_hexagon_two_triangles(self, hexagon):
        assert verify_decomposition(hexagon, (tri((1, 0), (1, 1)), tri((0, 1), (1, 1))))

    def test_wrong_sum_rejected(self, unit_square):
        assert not verify_decomposition(unit_square, (seg((1, 0)), seg((1, 0))))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_profile_check_matches_exact_sum(self, data):
        """The edge-profile check against the exact Minkowski sum it replaced."""
        dim = data.draw(st.sampled_from((1, 2)))
        multisets = st.lists(st.sampled_from(SIMPLICES[dim]), max_size=4)
        summands = data.draw(multisets)
        kind = data.draw(st.sampled_from(("own sum", "other sum", "hull")))
        if kind == "hull":
            point = st.tuples(*[st.integers(-6, 6)] * dim)
            polytope = hull(data.draw(st.lists(point, min_size=1, max_size=6)))
        else:
            parts = summands if kind == "own sum" else data.draw(multisets)
            polytope = minkowski_sum_all((hull(s.vertex_set()) for s in parts), dim)
        polytope = polytope.translate(data.draw(st.tuples(*[st.integers(-5, 5)] * dim)))
        exact = minkowski_sum_all((hull(s.vertex_set()) for s in summands), dim)
        assert verify_decomposition(polytope, summands) == (pinned(exact) == pinned(polytope))

    def test_translation_invariance(self, hexagon):
        shifted = hexagon.translate((5, -7))
        assert verify_decomposition(shifted, (seg((1, 0)), seg((0, 1)), seg((1, 1))))

    def test_summands_of_the_wrong_rank_are_false(self, unit_square):
        assert verify_decomposition(unit_square, [UnimodularSimplex(1, ((1,),))]) is False
        assert verify_decomposition(unit_square, [seg((1, 0)), seg((0, 1)), seg((1,))]) is False
        assert verify_decomposition(hull([(0,), (1,)]), [seg((1, 0))]) is False


class TestEnumerate:
    def test_hexagon_has_exactly_two(self, hexagon):
        decs = enumerate_decompositions(hexagon)
        assert len(decs) == 2
        assert [s.generators for s in decs[0].summands] == [((1, 0),), ((0, 1),), ((1, 1),)]
        assert [s.generators for s in decs[1].summands] == [
            ((1, 0), (1, 1)),
            ((0, 1), (1, 1)),
        ]

    def test_unit_square_has_exactly_one(self, unit_square):
        decs = enumerate_decompositions(unit_square)
        assert len(decs) == 1
        assert [s.generators for s in decs[0].summands] == [((1, 0),), ((0, 1),)]

    # 1199: a search that recursed once per summand died near 1000 steps
    @pytest.mark.parametrize("p", [0, 1, 2, 4, 1199])
    def test_segment_decomposes_into_unit_steps(self, p):
        decs = enumerate_decompositions(hull([(0,), (p + 1,)]))
        assert len(decs) == 1
        assert decs[0].summands == tuple(seg((1,)) for _ in range(p + 1))

    def test_long_diagonal_segment_decomposes_into_unit_steps(self):
        decs = enumerate_decompositions(hull([(0, 0), (1500, 1500)]))
        assert len(decs) == 1
        assert decs[0].summands == (seg((1, 1)),) * 1500

    def test_unimodular_triangle_is_its_own_decomposition(self):
        t = hull([(0, 0), (1, 0), (1, 1)])
        decs = enumerate_decompositions(t)
        assert len(decs) == 1
        assert decs[0].summands == (tri((1, 0), (1, 1)),)

    def test_point_has_the_empty_decomposition(self):
        decs = enumerate_decompositions(hull([(3, 4)]))
        assert len(decs) == 1
        assert decs[0].summands == ()
        assert decs[0].translation == (3, 4)

    def test_all_results_verify(self, hexagon):
        for dec in enumerate_decompositions(hexagon):
            assert verify_decomposition(hexagon, dec.summands)

    def test_budget_exceeded(self, hexagon):
        with pytest.raises(SearchBudgetExceededError):
            enumerate_decompositions(hexagon, budget=2)

    def test_negative_budget_rejected(self, hexagon):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_decompositions(hexagon, budget=-1)

    # Z(4,5) has four triangle types over eight directions of length 5.  Its
    # walk takes 54 nodes: m0 in 0..5 is free, m1 = m0 is forced by the pair
    # (1, 1), m2 in 0..5-m0 is free and m3 = m2 is forced by the pair (-1, 1).
    # Each choice of m0 costs 2 nodes and each of m2 another 2, the last of
    # which finds a result, so the 21 results end at nodes 4, 6, ..., 14, 18,
    # ..., 54.  Every result is built after the walk ends.
    @pytest.mark.parametrize("budget, found", [(0, 0), (10, 4), (30, 12), (53, 20)])
    def test_budget_error_says_how_far_the_search_got(self, monkeypatch, budget, found):
        built = []
        real = MinkowskiDecomposition._of.__func__

        def counted(cls, *args):
            built.append(args)
            return real(cls, *args)

        monkeypatch.setattr(MinkowskiDecomposition, "_of", classmethod(counted))
        with pytest.raises(SearchBudgetExceededError) as info:
            enumerate_decompositions(zonotope(4, 5), budget=budget)
        assert built == []
        assert str(info.value) == (
            f"decomposition search exceeded {budget} nodes: "
            f"{found} decompositions found in {budget} nodes visited"
        )
        assert len(enumerate_decompositions(zonotope(4, 5), budget=54)) == len(built) == 21

    @pytest.mark.parametrize(
        "polytope, nodes",
        [
            # two triangle types, each placed 0 or 1 times: 2 choices of the
            # first, and the pair (1, 0) forces the second, 1 node each
            (hull(HEXAGON_CORNERS), 4),
            # the same two types: k + 1 choices of the first, each forcing the
            # second, against (k + 1)(k + 2) nodes for a walk of both
            *[(hull([(k * x, k * y) for x, y in HEXAGON_CORNERS]), 2 * (k + 1))
              for k in (1, 5, 100, 1000)],
            # see test_budget_error_says_how_far_the_search_got
            (zonotope(4, 5), 54),
            # eight triangle types over twelve directions of length 3: the free
            # levels 0, 1, 3 and 6 take 4, 10, 23 and 39 nodes; levels 2, 4, 5
            # and 7 are forced (m2 = m1, m4 = m0, m5 = m3, then one result per
            # node), one node per prefix that fits: 10, 20 (the triples with
            # m0 + m1 + m3 <= 3), 20 and 39
            (zonotope(6, 3), 4 + 10 + 10 + 23 + 20 + 20 + 39 + 39),
            # no triangle fits a segment, and forced segments cost no nodes
            (hull([(0,), (1200,)]), 0),
        ],
        ids=["hexagon", *(f"hexagon*{k}" for k in (1, 5, 100, 1000)), "Z(4,5)", "Z(6,3)",
             "segment"],
    )
    def test_budget_counts_triangle_choices(self, polytope, nodes):
        enumerate_decompositions(polytope, budget=nodes)
        if nodes:
            with pytest.raises(SearchBudgetExceededError):
                enumerate_decompositions(polytope, budget=nodes - 1)

    def test_deterministic_order(self, hexagon):
        first = enumerate_decompositions(hexagon)
        second = enumerate_decompositions(hexagon)
        assert first == second

    @pytest.mark.parametrize("m, n, count", [(6, 3, 39), (8, 2, 45), (8, 3, 159)])
    def test_zonotope_counts(self, m, n, count):
        assert len(enumerate_decompositions(zonotope(m, n))) == count

    def test_translated_input(self, hexagon):
        decs = enumerate_decompositions(hexagon.translate((3, 9)))
        assert len(decs) == 2
        assert all(d.translation == (3, 9) for d in decs)
        assert all(d.polytope == hexagon for d in decs)


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "corners",
        [
            [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],  # hexagon
            [(0, 0), (1, 0), (1, 1), (0, 1)],                  # unit square
            [(0, 0), (1, 1), (2, 0), (1, -1)],                 # rotated square
            [(0, 0), (1, 0), (1, 1)],                          # unimodular triangle
            [(0, 0), (2, 0), (2, 2), (0, 2)],                  # doubled square
            [(0, 0), (2, 1)],                                  # primitive segment
            [(0, 0), (2, 0)],                                  # segment of length 2
        ],
    )
    def test_small_polytopes(self, corners):
        p = hull(corners)
        assert len(lattice_points(p)) <= 9
        assert enumerate_decompositions(p) == brute_decompositions(p)

    def test_random_sums_contain_their_generators(self):
        rng = random.Random(41)
        for _ in range(40):
            parts = [random_unimodular_simplex(rng) for _ in range(rng.randint(1, 3))]
            p = minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2)
            decs = enumerate_decompositions(p)
            expected = tuple(sorted(parts, key=lambda s: (s.k, s.generators)))
            assert any(
                tuple(sorted(d.summands, key=lambda s: (s.k, s.generators))) == expected
                for d in decs
            )
            if len(lattice_points(p)) <= 8:
                assert decs == brute_decompositions(p)


class TestAgainstBacktracking:
    """The triangle-multiplicity search against the summand backtracking."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_dilated_hexagon(self, hexagon, k):
        p = hull([(k * x, k * y) for x, y in hexagon.vertices])
        decs = enumerate_decompositions(p)
        assert len(decs) == k + 1
        assert decs == backtrack_decompositions(p)

    @pytest.mark.parametrize("m, n", [(4, 3), (5, 2), (5, 3), (6, 2), (4, 5), (6, 3)])
    def test_zonotope(self, m, n):
        p = zonotope(m, n).translate((3, -2))
        assert enumerate_decompositions(p) == backtrack_decompositions(p)

    def test_random_sums(self):
        rng = random.Random(41)
        for _ in range(40):
            parts = [random_unimodular_simplex(rng) for _ in range(rng.randint(1, 3))]
            p = minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2)
            assert enumerate_decompositions(p) == backtrack_decompositions(p)


class TestEdgeBudgetLaw:
    def test_union_of_summand_edges(self, hexagon):
        for dec in enumerate_decompositions(hexagon):
            combined: dict = {}
            for s in dec.summands:
                for direction, length in edge_profile(hull(s.vertex_set())).items():
                    combined[direction] = combined.get(direction, 0) + length
            assert combined == edge_profile(dec.polytope)


class TestDecompositionType:
    def test_summands_re_sorted_and_canonicalized(self, hexagon):
        dec = MinkowskiDecomposition(
            hexagon, (0, 0), (seg((0, 1)), seg((1, 1)), seg((1, 0)))
        )
        assert [s.generators for s in dec.summands] == [((1, 0),), ((0, 1),), ((1, 1),)]

    def test_bad_sum_rejected(self, unit_square):
        with pytest.raises(ValueError):
            MinkowskiDecomposition(unit_square, (0, 0), (seg((1, 0)),))

    @pytest.mark.parametrize("summand", [(1, 0), ((1, 0),), hull([(0, 0), (1, 0)]), None])
    def test_summand_that_is_not_a_simplex_is_a_type_error(self, unit_square, summand):
        with pytest.raises(TypeError, match="expected a UnimodularSimplex summand"):
            MinkowskiDecomposition(unit_square, (0, 0), (summand,))
        with pytest.raises(TypeError, match="expected a UnimodularSimplex summand"):
            MinkowskiDecomposition(unit_square, (0, 0), (seg((1, 0)), summand, seg((0, 1))))
        with pytest.raises(TypeError):
            verify_decomposition(unit_square, (seg((1, 0)), summand))

    @pytest.mark.parametrize("build", [
        lambda a, b: None,
        lambda a, b: {a: 1, b: 1},
        lambda a, b: {a, b},
        lambda a, b: (s for s in (a, b)),
        lambda a, b: "ab",
    ], ids=["None", "dict", "set", "generator", "string"])
    def test_summands_that_are_not_a_tuple_or_a_list_are_a_type_error(self, unit_square, build):
        for polytope in (unit_square, hull([(0, 0)])):
            with pytest.raises(TypeError, match="summands must be a tuple or a list"):
                MinkowskiDecomposition(polytope, (0, 0), build(seg((0, 1)), seg((1, 0))))

    def test_tuple_and_list_build_equal_decompositions(self, unit_square):
        summands = [seg((0, 1)), seg((1, 0))]
        dec = MinkowskiDecomposition(unit_square, (0, 0), tuple(summands))
        assert MinkowskiDecomposition(unit_square, (0, 0), summands) == dec
        assert dec.summands == (seg((1, 0)), seg((0, 1)))

    def test_off_origin_polytope_rejected(self, hexagon):
        with pytest.raises(ValueError):
            MinkowskiDecomposition(
                hexagon.translate((1, 0)),
                (0, 0),
                (seg((1, 0)), seg((0, 1)), seg((1, 1))),
            )


def construction(cls, polytope, translation, summands):
    """What building the decomposition gives: its public data, or the type
    of the error it raises."""
    try:
        dec = cls(polytope, translation, tuple(summands))
    except (ValueError, SyzkitError) as exc:
        return type(exc)
    return dec.summands, dec.ks, dec.to_json_dict()


def rerooted(summand, root):
    """The same simplex with its vertex ``root`` moved to the origin."""
    verts = summand.vertex_set()
    return UnimodularSimplex(summand.dim, tuple(vec_sub(v, root) for v in verts if v != root))


class TestDecompositionTypeAgainstPerSummand:
    """Once-per-type validation against the per-summand validation it replaced."""

    # shapes from the benchmark's decompose corpus
    CORPUS = {
        **{f"Z({m},{n})": zonotope(m, n) for m, n in ((4, 5), (5, 3), (6, 2), (6, 3))},
        **{f"hexagon*{k}": hull([(k * x, k * y) for x, y in HEXAGON_CORNERS]) for k in range(1, 7)},
        "square": hull([(0, 0), (1, 0), (1, 1), (0, 1)]),
        "rotated square": hull([(0, 0), (1, 1), (2, 0), (1, -1)]),
        "triangle": hull([(0, 0), (1, 0), (1, 1)]),
        "doubled square": hull([(0, 0), (2, 0), (2, 2), (0, 2)]),
        "segment (2,1)": hull([(0, 0), (2, 1)]),
        "segment (2,0)": hull([(0, 0), (2, 0)]),
        **{f"segment [0,{n}]": hull([(0,), (n,)]) for n in (1, 10, 20, 900, 1200)},
    }

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus(self, name):
        rng = random.Random(7)
        for dec in enumerate_decompositions(self.CORPUS[name]):
            assert sort_key(dec) == tuple(summand_sort_key(s) for s in dec.summands)
            shuffled = list(dec.summands)
            rng.shuffle(shuffled)
            moved = [rerooted(s, rng.choice(s.vertex_set())) for s in shuffled]
            args = dec.polytope, dec.translation
            for summands in (dec.summands, shuffled, moved, moved[1:]):
                want = construction(PerSummandDecomposition, *args, summands)
                got = construction(MinkowskiDecomposition, *args, summands)
                assert got == want
            assert construction(MinkowskiDecomposition, *args, moved) == (
                dec.summands, dec.ks, dec.to_json_dict()
            )
            assert got == ValueError  # one summand short

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_summand_lists(self, data):
        dim = data.draw(st.sampled_from((1, 2)))
        types = data.draw(st.lists(st.sampled_from(SIMPLICES[dim]), max_size=4))
        summands = []
        for s in types:
            copies = data.draw(st.integers(1, 4))
            # the same type, rooted at any vertex, with generators in any order
            for _ in range(copies):
                root = data.draw(st.sampled_from(s.vertex_set()))
                gens = data.draw(st.permutations(rerooted(s, root).generators))
                summands.append(UnimodularSimplex(dim, tuple(gens)))
        flaw = data.draw(st.sampled_from((None, None, None, "rank", "translation", "origin")))
        if flaw == "rank":
            summands.append(data.draw(st.sampled_from(SIMPLICES[3 - dim])))
        summands = data.draw(st.permutations(summands))
        kind = data.draw(st.sampled_from(("own sum", "own sum", "other sum", "hull")))
        if kind == "hull":
            point = st.tuples(*[st.integers(-6, 6)] * dim)
            polytope = hull(data.draw(st.lists(point, min_size=1, max_size=6)))
        else:
            parts = types if kind == "own sum" else data.draw(
                st.lists(st.sampled_from(SIMPLICES[dim]), max_size=4))
            polytope = minkowski_sum_all((hull(s.vertex_set()) for s in parts), dim)
        polytope = pinned(polytope)
        if flaw == "origin":
            polytope = polytope.translate(data.draw(st.tuples(*[st.integers(-2, 2)] * dim)))
        size = data.draw(st.sampled_from((dim - 1, dim + 1))) if flaw == "translation" else dim
        translation = data.draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size))
        want = construction(PerSummandDecomposition, polytope, translation, summands)
        got = construction(MinkowskiDecomposition, polytope, translation, summands)
        assert got == want

    @pytest.mark.parametrize(
        "vertices, step", [([(0,), (1200,)], (1,)), ([(0, 0), (1500, 1500)], (1, 1))]
    )
    def test_each_distinct_summand_is_built_and_profiled_once(self, monkeypatch, vertices, step):
        polytope = hull(vertices)
        calls = Counter()
        for owner, name in (
            (lattice, "hull"),
            (UnimodularSimplex, "edge_profile"),
            (minkowski, "summand_from_vertices"),
            (minkowski, "summand_sort_key"),
        ):
            def counted(*args, real=getattr(owner, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, counted)
        (dec,) = enumerate_decompositions(polytope)
        # rooted at the far end, so each copy would need re-rooting
        backwards = (seg(vec_neg(step)),) * len(dec.summands)
        again = MinkowskiDecomposition(polytope, (0,) * polytope.dim, backwards)
        assert dec.summands == again.summands == (seg(step),) * vertices[1][0]
        # one sort key per distinct type and construction, none per summand or
        # per sort, and no hull, while the expanded key stays the per-summand
        # one; only the public construction profiles the segment, since the
        # search builds its result without checking it again
        assert calls == Counter(
            hull=0, edge_profile=1, summand_from_vertices=1, summand_sort_key=2
        )
        assert sort_key(dec) == tuple(summand_sort_key(s) for s in dec.summands)


def assert_runs(dec, stored):
    """The runs ``(summand, count)`` a decomposition keeps for the wall
    kernel are the list ``stored`` its constructor kept (``recorded_runs``);
    they name distinct canonical types in sort-key order, expand to its
    summands, its ``ks`` and its sort keys, and no kernel call replaces or
    regroups them."""
    runs = dec._runs
    assert runs is stored and type(runs) is list
    types = [s for s, _ in runs]
    assert len(set(types)) == len(types)
    assert all(canonical_summand(s) == s for s in types)
    keys = list(map(summand_sort_key, types))
    assert keys == sorted(set(keys))
    assert all(type(m) is int and m > 0 for _, m in runs)
    expand = [s for s, m in runs for _ in range(m)]
    assert tuple(expand) == dec.summands
    assert tuple(s.k for s in expand) == dec.ks
    assert tuple(map(summand_sort_key, expand)) == sort_key(dec)
    assert_kernels_keep_runs(dec)
    return runs


class TestRuns:
    """The runs a decomposition keeps for the wall kernel, from the search,
    from the public constructor and from JSON."""

    POLYTOPES = (
        zonotope(4, 3),
        zonotope(5, 2),
        hull(HEXAGON_CORNERS),
        hull([(0, 0), (2, 0), (0, 2)]),
        hull([(0, 0), (4, 4)]),
        hull([(0,), (9,)]),
        hull([(3, 4)]),
    )
    DECOMPOSITIONS = [dec for polytope in POLYTOPES for dec in enumerate_decompositions(polytope)]

    def test_hash_expands_no_summand(self, monkeypatch):
        """``hash`` reads the stored runs: A_1500 from the search and its
        rebuild from the reversed summands hash alike with ``summands``
        refused."""
        (dec,) = enumerate_decompositions(hull([(0,), (1500,)]))
        again = MinkowskiDecomposition(dec.polytope, dec.translation, dec.summands[::-1])

        def refuse(self):
            raise AssertionError("hash expanded the summands")

        monkeypatch.setattr(MinkowskiDecomposition, "summands", property(refuse))
        assert hash(dec) == hash(again)

    def test_search(self):
        for polytope in self.POLYTOPES:
            decs, stored = recorded_runs(lambda: enumerate_decompositions(polytope))
            assert decs and len(stored) == len(decs)
            for dec, runs in zip(decs, stored):
                assert_runs(dec, runs)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(DECOMPOSITIONS), st.data())
    def test_shuffled_non_canonical_summands(self, dec, data):
        d = dec.polytope.dim
        summands = data.draw(st.permutations(dec.summands))
        moved = tuple(rerooted(s, data.draw(st.sampled_from(s.vertex_set()))) for s in summands)
        built, (runs,) = recorded_runs(
            lambda: MinkowskiDecomposition(dec.polytope, dec.translation, moved)
        )
        assert assert_runs(built, runs) == dec._runs
        shift = data.draw(st.tuples(*[st.integers(-5, 5)] * d))
        loaded, (runs,) = recorded_runs(lambda: decomposition_from_json_dict({
            "polytope": dec.polytope.translate(shift).to_json_dict(),
            "translation": list(dec.translation),
            "summands": [s.to_json_dict() for s in moved],
        }))
        assert assert_runs(loaded, runs) == dec._runs

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_summand_lists(self, data):
        dim = data.draw(st.sampled_from((1, 2)))
        types = data.draw(st.lists(st.sampled_from(SIMPLICES[dim]), max_size=4))
        summands = [
            rerooted(s, data.draw(st.sampled_from(s.vertex_set())))
            for s in types
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        summands = data.draw(st.permutations(summands))
        polytope = pinned(minkowski_sum_all((hull(s.vertex_set()) for s in summands), dim))
        dec, (runs,) = recorded_runs(
            lambda: MinkowskiDecomposition(polytope, (0,) * dim, tuple(summands))
        )
        assert sorted(m for _, m in assert_runs(dec, runs)) == sorted(
            Counter(map(canonical_summand, summands)).values()
        )


class ExpandedDecomposition:
    """A decomposition kept as its expanded summands tuple, each summand
    canonicalised on its own and sorted by its key: the stored form before
    the runs became the only one, kept as the oracle of every reader of the
    runs."""

    def __init__(self, polytope, translation, summands):
        self.summands = tuple(sorted(map(canonical_summand, summands), key=summand_sort_key))
        self.fields = (polytope, tuple(translation), self.summands)
        self.p = len(self.summands) - 1
        self.ks = tuple(s.k for s in self.summands)

    def to_json_dict(self):
        polytope, translation, summands = self.fields
        return {
            "polytope": polytope.to_json_dict(),
            "translation": list(translation),
            "summands": [s.to_json_dict() for s in summands],
        }

    def cayley_generators(self):
        gens = []
        for i, s in enumerate(self.summands):
            tag = tuple(1 if j == i else 0 for j in range(self.p + 1))
            for w in sorted(s.vertex_set()):
                gens.append(w + tag)
        return tuple(gens)

    def __repr__(self):
        names = ("polytope", "translation", "summands")
        listed = ", ".join(f"{name}={v!r}" for name, v in zip(names, self.fields))
        return f"MinkowskiDecomposition({listed})"


def assert_reads_as_expanded(dec, oracle):
    """``dec`` reads as the expanded form ``oracle`` does: its summands,
    ``p``, ``ks``, JSON bytes, Cayley cone, ``repr`` and pickling; and it
    hashes its polytope, translation and the runs the oracle's sorted
    summands group into, with none expanded."""
    assert (dec.summands, dec.p, dec.ks) == (oracle.summands, oracle.p, oracle.ks)
    assert json.dumps(dec.to_json_dict()) == json.dumps(oracle.to_json_dict())
    assert cayley_cone(dec).generators == oracle.cayley_generators()
    runs = [(s, len(list(group))) for s, group in groupby(oracle.summands)]
    assert hash(dec) == hash((*oracle.fields[:2], *runs))
    assert repr(dec) == repr(oracle)
    assert dec.__reduce__() == (MinkowskiDecomposition, oracle.fields)
    again = pickle.loads(pickle.dumps(dec))
    assert again == dec and again._runs == dec._runs and repr(again) == repr(dec)


def assert_compare_as_expanded(decs, oracles):
    """Each pair compares as the pair of expanded forms does, and equal
    decompositions hash alike."""
    for (a, oa), (b, ob) in product(zip(decs, oracles), repeat=2):
        assert (a == b, a != b) == (oa.fields == ob.fields, oa.fields != ob.fields)
        assert a != b or hash(a) == hash(b)


class TestRunsAgainstExpandedSummands:
    """The runs as the only stored form against the expanded summands tuple,
    through the public constructor and the search, on shuffled and re-rooted
    summand lists."""

    @staticmethod
    def moved(summands, pick, shuffle):
        """The summands shuffled, each rooted at a vertex ``pick`` chooses."""
        moved = [rerooted(s, pick(s.vertex_set())) for s in summands]
        shuffle(moved)
        return moved

    def check(self, polytope, summands, translation, pick, shuffle):
        built = MinkowskiDecomposition(polytope, translation, tuple(summands))
        decs, oracles = [built], [ExpandedDecomposition(polytope, translation, summands)]
        for dec in enumerate_decompositions(polytope):
            moved = self.moved(dec.summands, pick, shuffle)
            oracle = ExpandedDecomposition(dec.polytope, dec.translation, moved)
            rebuilt = MinkowskiDecomposition(dec.polytope, dec.translation, tuple(moved))
            decs += [dec, rebuilt]
            oracles += [oracle, oracle]
        for dec, oracle in zip(decs, oracles):
            assert_reads_as_expanded(dec, oracle)
        assert_compare_as_expanded(decs, oracles)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_summand_lists(self, data):
        dim = data.draw(st.sampled_from((1, 2)))
        types = data.draw(st.lists(st.sampled_from(SIMPLICES[dim]), max_size=3))
        summands = [s for s in types for _ in range(data.draw(st.integers(1, 4)))]
        polytope = pinned(minkowski_sum_all((hull(s.vertex_set()) for s in summands), dim))
        translation = data.draw(st.tuples(*[st.integers(-5, 5)] * dim))

        def pick(vertices):
            return data.draw(st.sampled_from(vertices))

        def shuffle(items):
            items[:] = data.draw(st.permutations(items))

        self.check(polytope, self.moved(summands, pick, shuffle), translation, pick, shuffle)

    @pytest.mark.parametrize("name", ["hexagon*3", "hexagon*6", "Z(6,2)"])
    def test_corpus(self, name):
        """Dilated hexagons have results with the same types in different
        counts, which only the counts tell apart."""
        rng = random.Random(31)
        polytope = pinned(DECOMPOSE_CORPUS[name])
        (first, *_) = enumerate_decompositions(polytope)
        self.check(polytope, self.moved(first.summands, rng.choice, rng.shuffle), (3, -4),
                   rng.choice, rng.shuffle)


class TestSearchByConstruction:
    """The search builds its results without the public constructor's
    checks; each must equal its rebuild by that constructor, the per-summand
    oracle's, and the whole list the backtracking search's."""

    @staticmethod
    def check(polytope, backtrack=True):
        decs = enumerate_decompositions(polytope)
        for dec in decs:
            args = dec.polytope, dec.translation, dec.summands
            again = MinkowskiDecomposition(*args)
            assert again == dec
            assert (again.summands, again.ks, sort_key(again), again.to_json_dict()) == (
                dec.summands, dec.ks, sort_key(dec), dec.to_json_dict()
            )
            oracle = PerSummandDecomposition(*args)
            assert (oracle.summands, oracle.ks, oracle.to_json_dict()) == (
                dec.summands, dec.ks, dec.to_json_dict()
            )
            assert sort_key(dec) == tuple(summand_sort_key(s) for s in dec.summands)
        if backtrack:
            assert decs == backtrack_decompositions(polytope)
        return decs

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_sums(self, data):
        dim = data.draw(st.sampled_from((1, 2)))
        parts = data.draw(st.lists(st.sampled_from(SIMPLICES[dim]), min_size=1, max_size=4))
        shift = data.draw(st.tuples(*[st.integers(-9, 9)] * dim))
        polytope = minkowski_sum_all((hull(s.vertex_set()) for s in parts), dim)
        decs = self.check(polytope.translate(shift))
        want = sorted(summand_sort_key(canonical_summand(s)) for s in parts)
        assert any(sorted(sort_key(d)) == want for d in decs)

    @pytest.mark.parametrize("name", TestDecompositionTypeAgainstPerSummand.CORPUS)
    def test_corpus(self, name):
        polytope = TestDecompositionTypeAgainstPerSummand.CORPUS[name]
        # the backtracking oracle recurses once per summand
        self.check(polytope, backtrack=sum(edge_profile(polytope).values()) < 200)

    @pytest.mark.parametrize("name", TestDecompositionTypeAgainstPerSummand.CORPUS)
    def test_work_per_search(self, monkeypatch, name):
        polytope = TestDecompositionTypeAgainstPerSummand.CORPUS[name]
        profile = edge_profile(pinned(polytope))
        calls = Counter()
        for owner, attr in (
            (MinkowskiDecomposition, "__post_init__"),
            (minkowski, "edge_profile"),
            (minkowski, "summand_sort_key"),
        ):
            def counted(*args, real=getattr(owner, attr), attr=attr):
                calls[attr] += 1
                return real(*args)
            monkeypatch.setattr(owner, attr, counted)
        decs = enumerate_decompositions(polytope)
        monkeypatch.undo()
        # every triangle the profile admits, and a unit segment per direction u > -u
        types = len(minkowski._unimodular_triangles(profile)) if polytope.dim == 2 else 0
        types += sum(1 for u in profile if u > vec_neg(u))
        assert decs and calls == Counter(edge_profile=1, summand_sort_key=types)


def pair_scan_triangles(profile):
    """The pair scan that the one-pass triangle scan replaced, kept as an
    oracle: every ordered pair with ``cross(a, b) == 1``, its third edge, and
    the rotation that starts at the least edge."""
    triples = ((a, b, vec_neg(vec_add(a, b))) for a in profile for b in profile if cross(a, b) == 1)
    return sorted(t for t in triples if t[2] in profile and t[0] == min(t))


# Edge directions of the hexagon, in order around it.
HEXAGON_EDGES = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


def mixed_hexagons(sides=range(3, 6)):
    """Every hexagon with edges HEXAGON_EDGES, all six side lengths in
    ``sides`` and not all equal: the 42 mixed hexagons of the benchmark's
    decompose corpus, by name."""
    out = {}
    for l1, l2, l3, l4 in product(sides, repeat=4):
        l5 = l1 + l2 - l4
        lengths = (l1, l2, l3, l4, l5, l2 + l3 - l5)
        if l5 in sides and lengths[5] in sides and len(set(lengths)) > 1:
            corners, (x, y) = [], (0, 0)
            for (dx, dy), n in zip(HEXAGON_EDGES, lengths):
                corners.append((x, y))
                x, y = x + n * dx, y + n * dy
            out["hexagon" + "".join(map(str, lengths))] = hull(corners)
    return out


# The 2-dimensional shapes of the benchmark's decompose corpus whose search
# has set-up work: its 4 zonotopes, 6 dilated hexagons and 42 mixed hexagons.
DECOMPOSE_CORPUS = {
    **{f"Z({m},{n})": zonotope(m, n) for m, n in ((4, 5), (5, 3), (6, 2), (6, 3))},
    **{f"hexagon*{k}": hull([(k * x, k * y) for x, y in HEXAGON_CORNERS]) for k in range(1, 7)},
    **mixed_hexagons(),
}

PRIMITIVE = [v for v in product(range(-3, 4), repeat=2) if lattice.lattice_length(v) == 1]


@st.composite
def zonotopes(draw):
    """The Minkowski sum of 1 to 5 segments along primitive directions."""
    corners = [(0, 0)]
    for _ in range(draw(st.integers(1, 5))):
        (dx, dy), n = draw(st.sampled_from(PRIMITIVE)), draw(st.integers(1, 3))
        corners = [(x + t * n * dx, y + t * n * dy) for x, y in corners for t in (0, 1)]
    return hull(corners)


@st.composite
def polygons(draw):
    """The convex hull of 1 to 8 lattice points in [-6, 6]^2."""
    return hull(draw(st.lists(st.tuples(*[st.integers(-6, 6)] * 2), min_size=1, max_size=8)))


class TestTriangleScan:
    """The one-pass triangle scan against the pair scan it replaced."""

    @pytest.mark.parametrize("name", DECOMPOSE_CORPUS)
    def test_corpus(self, name):
        profile = edge_profile(DECOMPOSE_CORPUS[name])
        assert minkowski._unimodular_triangles(profile) == pair_scan_triangles(profile)

    def test_corpus_size(self):
        assert len(mixed_hexagons()) == 42 and len(DECOMPOSE_CORPUS) == 52

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(zonotopes(), polygons()))
    def test_random_polygons(self, polytope):
        profile = edge_profile(polytope)
        assert minkowski._unimodular_triangles(profile) == pair_scan_triangles(profile)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sets(st.sampled_from(PRIMITIVE), max_size=12))
    def test_random_direction_sets(self, directions):
        profile = dict.fromkeys(directions, 1)
        assert minkowski._unimodular_triangles(profile) == pair_scan_triangles(profile)


def check_results(decs):
    """The search's results come in sort-key order, are made of canonical
    types, and read as their rebuilds by the public constructor do, before
    and after a kernel call."""
    keys = [sort_key(dec) for dec in decs]
    assert decs == sorted(decs, key=sort_key)
    assert keys == sorted(set(keys))
    for dec in decs:
        for s in set(dec.summands):
            assert s == UnimodularSimplex(s.dim, s.generators) == canonical_summand(s)
        again = MinkowskiDecomposition(dec.polytope, dec.translation, dec.summands)
        assert dec.ks == tuple(s.k for s in dec.summands)
        view = dec == again, hash(dec) == hash(again), pickle.dumps(dec), dec.to_json_dict()
        assert view[:2] == (True, True) and pickle.loads(view[2]) == dec
        assert (dec.ks, sort_key(dec)) == (again.ks, sort_key(again))
        syz_mirror(dec)
        assert dec.ks == tuple(s.k for s in dec.summands)
        assert (dec == again, hash(dec) == hash(again), pickle.dumps(dec), dec.to_json_dict()) == view


class TestSearchResults:
    """Order, canonical types and the data kept by the search's results."""

    @pytest.mark.parametrize("name", DECOMPOSE_CORPUS)
    def test_corpus(self, name):
        check_results(enumerate_decompositions(DECOMPOSE_CORPUS[name]))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(zonotopes(), polygons()))
    def test_random_polygons(self, polytope):
        check_results(enumerate_decompositions(polytope))

    def test_no_sort_key_is_stored(self):
        assert "_sort_key" not in MinkowskiDecomposition.__slots__

    def test_only_the_runs_are_kept(self):
        # the summands are a view of the runs, not a kept tuple
        assert MinkowskiDecomposition.__slots__ == ("polytope", "translation", "_runs")
        assert type(MinkowskiDecomposition.__dict__["summands"]) is property

    @pytest.mark.parametrize("polytope", [hull(HEXAGON_CORNERS), zonotope(4, 3)],
                             ids=["hexagon", "Z(4,3)"])
    def test_types_are_neither_rooted_nor_validated(self, monkeypatch, polytope):
        calls = Counter()
        for owner, attr in (
            (minkowski, "summand_from_vertices"),
            (UnimodularSimplex, "__post_init__"),
            (lattice, "is_unimodular_simplex"),
        ):
            def counted(*args, real=getattr(owner, attr), attr=attr):
                calls[attr] += 1
                return real(*args)
            monkeypatch.setattr(owner, attr, counted)
        assert enumerate_decompositions(polytope) and calls == Counter()


def search_nodes(polytope, most):
    """The nodes the search visits on ``polytope``, at most ``most``: the
    least budget it succeeds with, found by bisection."""
    low, high = 0, most
    while low < high:
        mid = (low + high) // 2
        try:
            enumerate_decompositions(polytope, budget=mid)
        except SearchBudgetExceededError:
            low = mid + 1
        else:
            high = mid
    return low


# The search profiles its input as given, not pinned at the origin, so every
# shape of the benchmark's decompose corpus is also searched far from it:
# its rank-2 polygons, the small polytopes of TestAgainstBruteForce and the
# unit-step segments of rank 1.
TRANSLATED_SHAPES = {
    **DECOMPOSE_CORPUS,
    **{name: hull(corners) for name, corners in (
        ("square", [(0, 0), (1, 0), (1, 1), (0, 1)]),
        ("rotated square", [(0, 0), (1, 1), (2, 0), (1, -1)]),
        ("triangle", [(0, 0), (1, 0), (1, 1)]),
        ("doubled square", [(0, 0), (2, 0), (2, 2), (0, 2)]),
        ("segment (2,1)", [(0, 0), (2, 1)]),
        ("segment (2,0)", [(0, 0), (2, 0)]),
    )},
    **{f"[0,{n}]": hull([(0,), (n,)]) for n in (1, 2, 10, 20, 900)},
}


class TestAgainstTheFullWalk:
    """The search with forced multiplicities against the full walk: the same
    results in the same order, read the same, in no more nodes."""

    @staticmethod
    def check(polytope):
        want, nodes = full_walk_decompositions(polytope)
        decs = enumerate_decompositions(polytope, budget=nodes)
        assert decs == want
        assert [dec.to_json_dict() for dec in decs] == [dec.to_json_dict() for dec in want]
        return want, nodes

    @pytest.mark.parametrize("name", DECOMPOSE_CORPUS)
    def test_corpus(self, name):
        self.check(DECOMPOSE_CORPUS[name])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(zonotopes(), polygons()))
    def test_random_polygons(self, polytope):
        self.check(polytope)

    def test_random_sums(self):
        rng = random.Random(41)
        for _ in range(40):
            parts = [random_unimodular_simplex(rng) for _ in range(rng.randint(1, 3))]
            self.check(minkowski_sum_all((hull(s.vertex_set()) for s in parts), 2))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_summand_sums(self, data):
        dim = data.draw(st.sampled_from((1, 2)))
        parts = data.draw(st.lists(st.sampled_from(SIMPLICES[dim]), min_size=1, max_size=4))
        shift = data.draw(st.tuples(*[st.integers(-9, 9)] * dim))
        self.check(minkowski_sum_all((hull(s.vertex_set()) for s in parts), dim).translate(shift))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(TRANSLATED_SHAPES)), st.data())
    def test_translated_corpus_shapes(self, name, data):
        """A translate far from the origin gives the oracle's results, in its
        order and read the same, and takes the nodes the search takes on the
        shape at the origin: it succeeds with that budget and fails with one
        less."""
        shape = TRANSLATED_SHAPES[name]
        shift = data.draw(st.tuples(*[st.integers(-10**6, 10**6)] * shape.dim))
        moved = shape.translate(shift)
        want, most = self.check(moved)
        assert all(dec.translation == vec_add(shape.lexmin, shift) for dec in want)
        nodes = search_nodes(pinned(shape), most)
        assert enumerate_decompositions(moved, budget=nodes) == want
        if nodes:
            with pytest.raises(SearchBudgetExceededError):
                enumerate_decompositions(moved, budget=nodes - 1)


class TestSummandCap:
    def test_segment_past_the_cap_is_rejected_before_any_summand(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a summand was built")

        for name in ("UnimodularSimplex", "summand_from_vertices", "MinkowskiDecomposition"):
            monkeypatch.setattr(minkowski, name, built)
        with pytest.raises(OutputTooLargeError) as info:
            enumerate_decompositions(hull([(0,), (2 * 10**6,)]), budget=0)
        assert info.value.code == "OutputTooLarge"

    def test_cap_is_half_the_lattice_perimeter(self, monkeypatch, hexagon):
        monkeypatch.setattr(minkowski, "MAX_SUMMANDS", 3)
        assert len(enumerate_decompositions(hexagon)) == 2
        assert len(enumerate_decompositions(hull([(0,), (3,)]))) == 1
        for polytope in (hull([(0,), (4,)]), hull([(0, 0), (2, 0), (2, 2), (0, 2)])):
            with pytest.raises(OutputTooLargeError):
                enumerate_decompositions(polytope)

    def test_default_cap(self):
        assert minkowski.MAX_SUMMANDS == 10**6
        (dec,) = enumerate_decompositions(hull([(0,), (100_000,)]), budget=0)
        assert len(dec.summands) == 100_000


class TestCayleyCone:
    def test_rank_one_double_segment(self, a1):
        cone = cayley_cone(a1)
        assert cone.generators == ((0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1))

    def test_conifold(self, conifold):
        cone = cayley_cone(conifold)
        assert cone.generators == (
            (0, 0, 1, 0),
            (1, 0, 1, 0),
            (0, 0, 0, 1),
            (0, 1, 0, 1),
        )

    def test_single_summand_is_cone_over_polytope(self):
        t = hull([(0, 0), (1, 0), (1, 1)])
        dec = enumerate_decompositions(t)[0]
        cone = cayley_cone(dec)
        assert cone.generators == ((0, 0, 1), (1, 0, 1), (1, 1, 1))

    def test_generator_count_and_fibers(self, hexagon):
        for dec in enumerate_decompositions(hexagon):
            cone = cayley_cone(dec)
            assert len(cone.generators) == sum(k + 1 for k in dec.ks)
            d = dec.polytope.dim
            for i, s in enumerate(dec.summands):
                fiber = [
                    g[:d]
                    for g in cone.generators
                    if g[d:] == tuple(1 if j == i else 0 for j in range(dec.p + 1))
                ]
                assert hull(fiber) == hull(s.vertex_set())


class TestJson:
    def test_round_trip(self, hexagon):
        for dec in enumerate_decompositions(hexagon):
            data = dec.to_json_dict()
            again = decomposition_from_json_dict(data)
            assert again == dec
            assert verify_decomposition(again.polytope, again.summands)

    def test_shifted_polytope_normalized(self):
        data = {
            "polytope": {"dim": 2, "vertices": [[1, 1], [2, 1], [2, 2], [1, 2]]},
            "translation": [0, 0],
            "summands": [{"generators": [[1, 0]]}, {"generators": [[0, 1]]}],
        }
        dec = decomposition_from_json_dict(data)
        assert dec.polytope == hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert dec.translation == (1, 1)

    @pytest.mark.parametrize("translation", [[0], [0, 0, 7]], ids=["short", "long"])
    def test_translation_of_the_wrong_rank_rejected(self, translation):
        data = {
            "polytope": {"dim": 2, "vertices": [[1, 1], [2, 1], [2, 2], [1, 2]]},
            "translation": translation,
            "summands": [{"generators": [[1, 0]]}, {"generators": [[0, 1]]}],
        }
        with pytest.raises(DimensionMismatchError, match="translation point has the wrong rank"):
            decomposition_from_json_dict(data)

    def test_ap_round_trip(self):
        dec = ap_decomposition(3)
        assert decomposition_from_json_dict(dec.to_json_dict()) == dec
