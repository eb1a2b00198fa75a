"""Exact integer linear algebra on small dense matrices."""

from fractions import Fraction
from math import prod


def det(rows) -> int:
    """Determinant of a square integer matrix, by fraction-free Bareiss elimination."""
    n = len(rows)
    m = [[int(x) for x in r] for r in rows]
    for r in m:
        if len(r) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _exact_root(n: int, k: int) -> int | None:
    """The k-th root of n >= 0 when it is an integer, else None, by an
    integer Newton iteration from above."""
    if k == 1 or n < 2:
        return n
    if n.bit_length() <= k:
        return None  # 1 < root < 2
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


def solve_multiplicative(rows, rhs, n: int) -> list[Fraction] | None:
    """Positive rationals x_1..x_n with prod_j x_j ** A[i][j] = b_i for every
    row i, or None when no such rationals exist; every b_i must be positive.

    Unimodular column operations bring A to a staircase form H with A U = H.
    Forward substitution solves prod_j y_j ** H[r][j] = b_r, taking an exact
    root at each pivot, and x_i = prod_j y_j ** U[i][j].  Free columns are
    pinned to 1, so the output is deterministic.  Nothing is factored: a
    prime's exponents in x are those of the integer system A e = v_p(b).
    """
    m = len(rows)
    h = [[int(x) for x in r] for r in rows]
    for r in h:
        if len(r) != n:
            raise ValueError("ragged matrix")
    if len(rhs) != m:
        raise ValueError("right-hand side length mismatch")
    b = [Fraction(x) for x in rhs]
    if any(x <= 0 for x in b):
        raise ValueError("right-hand side must be positive")
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

    y = [Fraction(1)] * n
    for r in range(m):
        residue = b[r] / prod(y[j] ** e for j, e in enumerate(h[r]))
        if r in pivot_col:
            j = pivot_col[r]
            num = _exact_root(residue.numerator, h[r][j])
            den = _exact_root(residue.denominator, h[r][j])
            if num is None or den is None:
                return None
            y[j] = Fraction(num, den)
        elif residue != 1:
            return None
    return [prod(y[j] ** e for j, e in enumerate(row)) for row in u]
