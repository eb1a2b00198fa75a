"""The exact-root solver that ``syzkit.intlinalg.solve_multiplicative``
replaced, kept unchanged as a differential oracle, with the bit-length bounds
that guarded its rows without a pivot.

It substitutes forward on rational values: an exact root of the residue at
each pivot, and a residue compared by bit lengths in a row without one.
"""

from fractions import Fraction
from math import prod

from syzkit.intlinalg import _exact_root


_MANTISSA_BITS = 64


def _cut(m: int, s: int, up: bool) -> tuple[int, int]:
    """``m * 2**s`` cut to a mantissa of at most ``_MANTISSA_BITS`` bits,
    rounded down, or up when ``up``."""
    k = m.bit_length() - _MANTISSA_BITS
    if k <= 0:
        return m, s
    q = m >> k
    if up and q << k != m:
        q += 1
    return q, s + k


def _power_log2_range(n: int, e: int) -> tuple[int, int]:
    """Integers lo, hi with 2**lo <= n**e < 2**hi, for n >= 1 and e >= 0.

    Binary powering on mantissas cut down for the lower bound and up for the
    upper, so the cost grows with the bit length of e and n**e is never formed.
    """
    bounds = []
    for up in (False, True):
        acc, base = (1, 0), _cut(n, 0, up)
        k = e
        while k:
            if k & 1:
                acc = _cut(acc[0] * base[0], acc[1] + base[1], up)
            k >>= 1
            if k:
                base = _cut(base[0] * base[0], 2 * base[1], up)
        bounds.append(acc)
    (m_lo, s_lo), (m_hi, s_hi) = bounds
    return m_lo.bit_length() - 1 + s_lo, m_hi.bit_length() + s_hi


def _may_equal(target: Fraction, ys: list[Fraction], exps) -> bool:
    """False when ``prod(y ** e)`` provably differs from ``target``: their
    log2 ranges, read off bit lengths, are disjoint.  No power is formed."""
    lo, hi = _power_log2_range(target.numerator, 1)
    d_lo, d_hi = _power_log2_range(target.denominator, 1)
    lo, hi = lo - d_hi, hi - d_lo
    p_lo = p_hi = 0
    for y, e in zip(ys, exps):
        num, den = (y.numerator, y.denominator) if e >= 0 else (y.denominator, y.numerator)
        n_lo, n_hi = _power_log2_range(num, abs(e))
        d_lo, d_hi = _power_log2_range(den, abs(e))
        p_lo += n_lo - d_hi
        p_hi += n_hi - d_lo
    return p_lo < hi and lo < p_hi


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
        # A row without a pivot must hold as it stands; a power that cannot
        # equal b_r is not formed, however large its exponent.
        if r not in pivot_col and not _may_equal(b[r], y, h[r]):
            return None
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
