import random
from time import perf_counter
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from syzkit.intlinalg import _exact_root, solve_multiplicative
from root_solver import _cut, _may_equal, _power_log2_range, solve_multiplicative as solve_by_roots
from conftest import brute_det


# The Fraction Gauss-Jordan inverse and the additive solver that
# ``solve_multiplicative`` replaced, kept unchanged as oracles.
def invert_unimodular(rows) -> list[list[int]]:
    """Inverse of an integer matrix with determinant +-1 (the inverse is again integral)."""
    n = len(rows)
    d = brute_det(rows)
    if d not in (1, -1):
        raise ValueError(f"matrix has determinant {d}, expected +-1")
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                factor = aug[r][c]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[c])]
    out = []
    for row in aug:
        entries = row[n:]
        if any(x.denominator != 1 for x in entries):
            raise AssertionError("unimodular inverse came out non-integral")
        out.append([int(x) for x in entries])
    return out



def solve_integer(rows, rhs) -> list[int] | None:
    """One integer solution x of A x = b, or None when no integer solution exists.

    Unimodular column operations bring A to a staircase form H with A U = H;
    forward substitution solves H y = b over the integers and x = U y.  Free
    columns are pinned to zero, so the output is deterministic.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    h = [[int(x) for x in r] for r in rows]
    for r in h:
        if len(r) != n:
            raise ValueError("ragged matrix")
    if len(rhs) != m:
        raise ValueError("right-hand side length mismatch")
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap(j, k):
        for r in range(m):
            h[r][j], h[r][k] = h[r][k], h[r][j]
        for r in range(n):
            u[r][j], u[r][k] = u[r][k], u[r][j]

    def combine(j, k, q):
        # column j -= q * column k
        for r in range(m):
            h[r][j] -= q * h[r][k]
        for r in range(n):
            u[r][j] -= q * u[r][k]

    def negate(j):
        for r in range(m):
            h[r][j] = -h[r][j]
        for r in range(n):
            u[r][j] = -u[r][j]

    pivot_col: dict[int, int] = {}
    c = 0
    for r in range(m):
        if c >= n:
            break
        while True:
            nonzero = [j for j in range(c, n) if h[r][j] != 0]
            if not nonzero:
                break
            best = min(nonzero, key=lambda j: abs(h[r][j]))
            if best != c:
                swap(c, best)
            reduced = True
            for j in range(c + 1, n):
                if h[r][j] != 0:
                    combine(j, c, h[r][j] // h[r][c])
                    if h[r][j] != 0:
                        reduced = False
            if reduced:
                break
        if c < n and h[r][c] != 0:
            if h[r][c] < 0:
                negate(c)
            pivot_col[r] = c
            c += 1

    y = [0] * n
    for r in range(m):
        residue = int(rhs[r]) - sum(h[r][j] * y[j] for j in range(n))
        if r in pivot_col:
            j = pivot_col[r]
            if residue % h[r][j] != 0:
                return None
            y[j] = residue // h[r][j]
        elif residue != 0:
            return None
    return [sum(u[i][j] * y[j] for j in range(n)) for i in range(n)]


class TestInvertUnimodular:
    def test_round_trip(self):
        rng = random.Random(5)
        count = 0
        while count < 50:
            n = rng.randint(1, 4)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if brute_det(m) not in (1, -1):
                continue
            count += 1
            inv = invert_unimodular(m)
            prod = [
                [sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            invert_unimodular([[2, 0], [0, 1]])


class TestSolveInteger:
    def test_hand_cases(self):
        assert solve_integer([[2]], [1]) is None
        assert solve_integer([[2]], [6]) == [3]
        assert solve_integer([[1, 0], [0, 2]], [3, 5]) is None
        assert solve_integer([[1], [1]], [0, 1]) is None
        x = solve_integer([[1, 2]], [3])
        assert x is not None and x[0] + 2 * x[1] == 3
        assert solve_integer([[1, 2], [2, 4]], [3, 6]) is not None
        assert solve_integer([[1, 2], [2, 4]], [3, 7]) is None

    def test_no_unknowns(self):
        assert solve_integer([[], []], [0, 0]) == []
        assert solve_integer([[], []], [0, 1]) is None

    def test_constructed_solutions_are_recovered(self):
        rng = random.Random(9)
        for _ in range(200):
            m = rng.randint(1, 5)
            n = rng.randint(1, 4)
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            x_true = [rng.randint(-5, 5) for _ in range(n)]
            b = [sum(a[i][j] * x_true[j] for j in range(n)) for i in range(m)]
            x = solve_integer(a, b)
            assert x is not None
            assert [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)] == b

    def test_returned_solutions_always_check_out(self):
        rng = random.Random(17)
        for _ in range(200):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            b = [rng.randint(-6, 6) for _ in range(m)]
            x = solve_integer(a, b)
            if x is not None:
                assert [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)] == b

    def test_none_matches_small_box_search(self):
        rng = random.Random(23)
        for _ in range(60):
            m = rng.randint(1, 3)
            n = rng.randint(1, 2)
            a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            b = [rng.randint(-4, 4) for _ in range(m)]
            if solve_integer(a, b) is not None:
                continue
            # solver said unsolvable: brute box search must agree within a
            # bound that would contain any solution of these tiny systems
            box = range(-12, 13)
            for x0 in box:
                candidates = [[x0]] if n == 1 else [[x0, x1] for x1 in box]
                for x in candidates:
                    assert any(
                        sum(a[i][j] * x[j] for j in range(n)) != b[i] for i in range(m)
                    )


def random_unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1: a permutation, a
    sign flip and a run of random elementary row operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rng.shuffle(m)
    m[0] = [-x for x in m[0]] if rng.random() < 0.5 else m[0]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return m


def positive_fraction(rng):
    return Fraction(rng.randint(1, 30), rng.randint(1, 30))


class TestExactRoot:
    def test_against_isqrt_and_powers(self):
        for n in range(2000):
            r = isqrt(n)
            assert _exact_root(n, 2) == (r if r * r == n else None)
        for k in range(1, 8):
            for r in (0, 1, 2, 3, 10, 2**61 - 1, 3**50):
                assert _exact_root(r**k, k) == r
                if r > 1 and k > 1:
                    assert _exact_root(r**k + 1, k) is None
                    assert _exact_root(r**k - 1, k) is None
        # a root between 1 and 2 is rejected before any power is formed
        assert _exact_root(5, 10**9) is None


class TestSolveMultiplicative:
    def test_hand_cases(self):
        assert solve_multiplicative([[2]], [2], 1) is None
        assert solve_multiplicative([[2]], [Fraction(9, 4)], 1) == [Fraction(3, 2)]
        assert solve_multiplicative([[2]], [Fraction(9, 2)], 1) is None
        assert solve_multiplicative([[1, 0], [0, 2]], [3, 5], 2) is None
        assert solve_multiplicative([[1], [1]], [1, 2], 1) is None
        x = solve_multiplicative([[1, 2]], [12], 2)
        assert x is not None and x[0] * x[1] ** 2 == 12
        assert solve_multiplicative([[1, 2], [2, 4]], [3, 9], 2) is not None
        assert solve_multiplicative([[1, 2], [2, 4]], [3, 10], 2) is None
        # a free column is pinned at 1
        assert solve_multiplicative([[1, 0]], [7], 2) == [7, 1]
        # base members 64 and 729 are replaced by their cube and square roots
        assert solve_multiplicative([[3, 0], [0, 2]], [64, Fraction(1, 729)], 2) == [
            4, Fraction(1, 27)
        ]
        assert solve_multiplicative([[4]], [2**6 * 3**4], 1) is None

    def test_no_rows_or_no_unknowns(self):
        assert solve_multiplicative([], [], 3) == [1, 1, 1]
        assert solve_multiplicative([[], []], [1, 1], 0) == []
        assert solve_multiplicative([[], []], [1, 2], 0) is None

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_multiplicative([[1, 2], [3]], [1, 1], 2)
        with pytest.raises(ValueError):
            solve_multiplicative([[1]], [1, 1], 1)
        for b in (0, -4, Fraction(-1, 9)):
            with pytest.raises(ValueError):
                solve_multiplicative([[2]], [b], 1)
        # inexact exponents and right-hand sides, which int() and Fraction()
        # would truncate or parse into a wrong answer
        for rows, rhs in (
            ([[1.5]], [2]),
            ([[1]], [1.5]),
            ([[1]], ["3/2"]),
            ([[True]], [2]),
            ([[1]], [True]),
        ):
            with pytest.raises(TypeError):
                solve_multiplicative(rows, rhs, 1)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_solve_integer_prime_by_prime(self, data):
        m = data.draw(st.integers(0, 4))
        n = data.draw(st.integers(0, 4))
        rows = [data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(m)]
        if data.draw(st.booleans()):
            # right-hand sides that come from a solution, so most cases solve
            e = {p: data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
                 for p in (2, 3, 5)}
            c = {p: [sum(a * x for a, x in zip(row, e[p])) for row in rows] for p in e}
        else:
            c = {p: data.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
                 for p in (2, 3, 5)}
        rhs = [prod(Fraction(p) ** c[p][i] for p in c) for i in range(m)]
        per_prime = {p: solve_integer(rows, c[p]) if m else [0] * n for p in c}
        if any(x is None for x in per_prime.values()):
            expected = None
        else:
            expected = [prod(Fraction(p) ** per_prime[p][j] for p in c) for j in range(n)]
        assert solve_multiplicative(rows, rhs, n) == expected

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_the_root_solver(self, data):
        # The exact-root solver on Fraction values, which this one replaced.
        m = data.draw(st.integers(0, 4))
        n = data.draw(st.integers(0, 4))
        rows = [data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(m)]
        for j in data.draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else ():
            for row in rows:
                row[j] = 0  # a free column
        positive = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))
        kind = data.draw(st.sampled_from(("solution", "powers", "random")))
        if kind == "solution":
            x = [data.draw(positive) ** data.draw(st.integers(1, 3)) for _ in range(n)]
            rhs = [prod((a ** e for a, e in zip(x, row)), start=Fraction(1)) for row in rows]
        else:
            k = data.draw(st.integers(2, 6)) if kind == "powers" else 1
            rhs = [data.draw(positive) ** k for _ in range(m)]
        assert solve_multiplicative(rows, rhs, n) == solve_by_roots(rows, rhs, n)

    def test_a_power_of_two_costs_few_divisions(self):
        start = perf_counter()
        assert solve_multiplicative([[1, 0], [0, 1], [1, 1]], [2**100000, 3, 3 * 2**100000], 2) == [
            2**100000, 3
        ]
        assert perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_basis_solve_matches_the_inverse(self, n):
        rng = random.Random(41 + n)
        for _ in range(300):
            m = random_unimodular(rng, n)
            assert brute_det(m) in (1, -1)
            inverse = invert_unimodular(m)
            b = [positive_fraction(rng) for _ in range(n)]
            expected = [prod(b[i] ** inverse[r][i] for i in range(n)) for r in range(n)]
            assert solve_multiplicative(m, b, n) == expected


class TestPowerBound:
    """Bit-length ranges of powers that are never formed, as the root solver
    in ``root_solver.py`` uses them."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 2**200), st.integers(-5, 5))
    def test_cut_rounds_down_and_up(self, m, s):
        (low, s_low), (high, s_high) = _cut(m, s, False), _cut(m, s, True)
        exact = Fraction(m) * Fraction(2) ** s
        assert low * Fraction(2) ** s_low <= exact <= high * Fraction(2) ** s_high
        assert low.bit_length() <= 64 and high.bit_length() <= 65
        if m.bit_length() > 64 and m % 2 ** (m.bit_length() - 64):
            assert high == low + 1

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(1, 10**40), st.integers(0, 3000))
    def test_range_encloses_the_power(self, n, e):
        lo, hi = _power_log2_range(n, e)
        assert 2**lo <= n**e < 2**hi
        assert hi - lo <= 2

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_an_equal_product_is_never_excluded(self, data):
        k = data.draw(st.integers(0, 3))
        ys = [data.draw(st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)))
              for _ in range(k)]
        exps = [data.draw(st.integers(-400, 400)) for _ in range(k)]
        exact = prod((y**e for y, e in zip(ys, exps)), start=Fraction(1))
        assert _may_equal(exact, ys, exps)
        # a target off by more than a factor of 2 ** (2k + 3) is excluded
        far = exact * 2 ** (2 * k + 3)
        assert not _may_equal(far, ys, exps)
        assert not _may_equal(1 / far * exact**2, ys, exps)

    def test_no_power_is_formed_in_a_row_without_a_pivot(self):
        e = 10**8
        times = []
        for _ in range(3):
            start = perf_counter()
            assert solve_multiplicative([[1, 0], [1, 1], [1, e]], [1, 2, 3], 2) is None
            times.append(perf_counter() - start)
        assert min(times) < 0.01
        assert solve_multiplicative([[1, 0], [1, 1], [1, 300]], [1, 2, 2**300], 2) == [1, 2]
