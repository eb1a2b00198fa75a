"""Exact integer linear algebra on small dense matrices."""

from fractions import Fraction
from math import gcd, prod

from .errors import _rational, json_int


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


def _strip(n: int, q: int) -> tuple[int, int]:
    """``(k, n // q**k)`` with q**k the largest power of q > 1 dividing n > 0,
    by repeated squaring: O(log k) divisions."""
    if n % q:
        return 0, n
    k, rest = _strip(n // q, q * q)
    return (2 * k + 2, rest // q) if rest % q == 0 else (2 * k + 1, rest)


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 of which every number > 0 is a product
    of powers, by gcd splitting: two members with a common factor g > 1
    give way to g and what is left of each once the powers of g are gone."""
    base: list[int] = []
    work = [a for a in numbers if a > 1]
    while work:
        a = work.pop()
        for i, q in enumerate(base):
            g = gcd(a, q)
            if g > 1:
                del base[i]
                work += [x for x in (g, _strip(a, g)[1], _strip(q, g)[1]) if x > 1]
                break
        else:
            base.append(a)
    return base


def solve_multiplicative(rows, rhs, n: int) -> list[Fraction] | None:
    """Positive rationals x_1..x_n with prod_j x_j ** A[i][j] = b_i for every
    row i, or None if none exist; A holds ints, b positive ints or Fractions.

    Unimodular column operations bring A to a staircase form H with A U = H,
    kept as one list per column: A's column above U's.  Over a coprime base
    of the b_i's numerators and denominators the system is the integer
    system A e = v(b) on exponent vectors, solved by forward substitution
    through H; x_i = prod_j y_j ** U[i][j].  A pivot h that does not divide
    a member's exponent c needs that member to be an exact t-th power,
    t = h / gcd(h, c), and the member is replaced by its root.  Since the
    members are pairwise coprime, this is exact: nothing is factored and no
    power of a b_i is formed.  Free columns are pinned to 1, so the output
    is deterministic.
    """
    m = len(rows)
    a = [[json_int(x) for x in r] for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("ragged matrix")
    if len(rhs) != m:
        raise ValueError("right-hand side length mismatch")
    b = [_rational(x) for x in rhs]
    if any(x <= 0 for x in b):
        raise ValueError("right-hand side must be positive")
    cols = [[r[j] for r in a] + [int(i == j) for i in range(n)] for j in range(n)]

    pivot_col: dict[int, int] = {}
    c = 0
    for r in range(m):
        if c >= n:
            break
        while True:
            nonzero = [j for j in range(c, n) if cols[j][r] != 0]
            if not nonzero:
                break
            best = min(nonzero, key=lambda j: abs(cols[j][r]))
            cols[c], cols[best] = cols[best], cols[c]
            p = cols[c]
            reduced = True
            for j in range(c + 1, n):
                if cols[j][r] != 0:
                    q = cols[j][r] // p[r]
                    cols[j] = [x - q * y for x, y in zip(cols[j], p)]
                    reduced = reduced and cols[j][r] == 0
            if reduced:
                break
        if cols[c][r] != 0:
            if cols[c][r] < 0:
                cols[c] = [-x for x in cols[c]]
            pivot_col[r] = c
            c += 1

    base = _coprime_base([x.numerator for x in b] + [x.denominator for x in b])
    v = [[_strip(x.numerator, q)[0] - _strip(x.denominator, q)[0] for q in base] for x in b]
    y = [[0] * len(base) for _ in range(n)]
    for r in range(m):
        residue = [e - sum(cols[j][r] * y[j][k] for j in range(n)) for k, e in enumerate(v[r])]
        if r not in pivot_col:
            # A row without a pivot must hold as it stands.
            if any(residue):
                return None
            continue
        j = pivot_col[r]
        h = cols[j][r]
        for k, e in enumerate(residue):
            if e % h:
                t = h // gcd(h, e)
                root = _exact_root(base[k], t)
                if root is None:
                    return None
                base[k] = root
                for vec in (*v, *y, residue):
                    vec[k] *= t
        y[j] = [e // h for e in residue]
    out = []
    for i in range(n):
        e = [sum(cols[j][m + i] * y[j][k] for j in range(n)) for k in range(len(base))]
        out.append(Fraction(prod(q**x for q, x in zip(base, e) if x > 0),
                            prod(q**-x for q, x in zip(base, e) if x < 0)))
    return out
