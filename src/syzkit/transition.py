"""Conifold-transition matching: normalize the toric-resolution mirror family
at a basis simplex by a monomial character and read off the parameter
specialization that lands the family exactly on the smoothing mirror.

The character is solved in closed form at the basis points: the
consecutive differences of a basis simplex form a unimodular matrix D, so
D^-1 = det(D) * adj(D) is an integer matrix and gamma and the alphas are
exact rational monomials in the basis coefficients.
"""

from fractions import Fraction
from math import isqrt, prod
from operator import mul

from .algebra import Character, _power_table, fraction_str
from .errors import InvalidBasisError, Value, VerificationFailedError, json_int
from .lattice import (
    SUPPORTED_DIMS,
    IntVec,
    LatticePolytope,
    _column_bounds,
    cross,
    is_unimodular_simplex,
    lattice_points,
    primitive,
    vec_sub,
)
from .minkowski import MinkowskiDecomposition
from .mirror import _checked_slots, _rows, _slot_terms


class BasisSimplex(Value):
    """Lattice points v_1..v_n whose consecutive differences form a lattice basis."""

    __slots__ = _fields = ("points",)

    def __post_init__(self):
        pts = tuple(tuple(map(json_int, p)) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise InvalidBasisError("empty basis")
        d = len(pts[0])
        if any(len(p) != d for p in pts) or len(pts) != d + 1:
            raise InvalidBasisError(f"expected {d + 1} points of rank {d}")
        if d not in SUPPORTED_DIMS:
            raise InvalidBasisError(f"a basis has rank 1 or 2, not rank {d}")
        diffs = [list(vec_sub(b, a)) for a, b in zip(pts, pts[1:])]
        if not is_unimodular_simplex(diffs):
            raise InvalidBasisError(
                f"consecutive differences {diffs} are not a lattice basis"
            )

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def validate_for(self, polytope: LatticePolytope) -> None:
        """Each point lies in the polytope, tested against the bounds of its
        column (in rank 1, of the segment), and the first is a vertex."""
        self._validate_in(polytope, _column_bounds(polytope))

    def _validate_in(self, polytope: LatticePolytope, bounds) -> None:
        """``validate_for`` with P's ``_column_bounds`` as the caller walked them."""
        if self.dim != polytope.dim:
            raise InvalidBasisError("basis rank differs from the polytope rank")
        columns = {x: (lo, hi) for x, lo, hi in bounds}
        for p in self.points:
            lo, hi = columns.get(p[0] if polytope.dim == 2 else 0, (1, 0))
            if not lo <= p[-1] <= hi:
                raise InvalidBasisError(f"{p} is not a lattice point of the polytope")
        if self.points[0] not in polytope.vertices:
            raise InvalidBasisError(
                f"first basis point {self.points[0]} is not a vertex of the polytope"
            )

    @classmethod
    def default_for(cls, polytope: LatticePolytope) -> "BasisSimplex":
        """Deterministic choice: the lexicographic-minimum vertex first, then
        the lexicographically earliest lattice points whose consecutive
        differences stay unimodular."""
        return _default_basis(polytope, lattice_points(polytope))


def _default_basis(polytope: LatticePolytope, pool: list[IntVec]) -> BasisSimplex:
    """``default_for`` over the candidate lattice points ``pool``, in lexicographic
    order; ``pool`` holds every vertex of the polytope."""
    v1 = polytope.vertices[0]
    if polytope.dim == 1:
        for p in pool:
            if p != v1 and abs(p[0] - v1[0]) == 1:
                return BasisSimplex._of((v1, p))  # int points, |p - v1| == 1
        raise InvalidBasisError("no unimodular chain of lattice points exists")
    for v2 in pool:
        if v2 == v1:
            continue
        w1 = vec_sub(v2, v1)
        if primitive(w1) != w1:
            continue
        for v3 in pool:
            if v3 in (v1, v2):
                continue
            if abs(cross(w1, vec_sub(v3, v2))) == 1:
                return BasisSimplex._of((v1, v2, v3))  # int points, |cross| == 1
    raise InvalidBasisError("no unimodular chain of lattice points exists")


class TransitionReport(Value):
    """Basis simplex, matching character, parameter specialization, and the
    exact-verification flag."""

    __slots__ = _fields = ("basis", "character", "specialization", "verified")

    def to_json_dict(self) -> dict:
        return {
            "basis": [list(p) for p in self.basis.points],
            "character": self.character.to_json_dict(),
            "specialization": [
                {"point": list(v), "value": fraction_str(q)}
                for v, q in sorted(self.specialization.items())
            ],
            "verified": self.verified,
        }


def _basis_character(points, targets) -> Character:
    """The character with weight ``n_i`` at each basis point ``v_i``.

    The differences v_{i+1} - v_i are the rows of a matrix D with det ±1,
    so D^-1 = det * adj(D): with r_i = n_{i+1} / n_i, alpha = r ** w in
    rank 1 (D = (w)) and alpha_j = prod_i r_i ** (det * adj(D))[j][i] in
    rank 2; then gamma = n_1 / alpha ** v_1.  Each output's exponents of
    the n_i are worked out in integers, and ``_monomial`` builds it from them.
    """
    diffs = [vec_sub(q, p) for p, q in zip(points, points[1:])]
    if len(diffs) == 1:
        inverse = [[diffs[0][0]]]
    else:
        (a, b), (c, d) = diffs
        det = a * d - b * c  # adj(D) = [[d, -b], [-c, a]]
        inverse = [[det * d, -det * b], [-det * c, det * a]]
    # r_i ** e puts n_{i+1} ** e and n_i ** -e into alpha_j
    alpha = [[left - right for left, right in zip((0, *row), (*row, 0))] for row in inverse]
    gamma = [int(i == 0) - sum(map(mul, points[0], column)) for i, column in enumerate(zip(*alpha))]
    return Character._of(_monomial(targets, gamma), tuple(_monomial(targets, e) for e in alpha))


def _monomial(bases, exponents) -> Fraction:
    """prod b ** e over the positive ``bases`` and integer ``exponents``.

    Once some |e| reaches 16, each e is q * h + r with q = isqrt(max |e|) + 1
    and 0 <= r < q, and the value is B ** q * R with B = prod b ** h and
    R = prod b ** r, each built the same way: a Fraction's power needs no
    gcd, and the last product's gcds each have one small side, so no gcd
    runs at the size of the output.
    """
    q = isqrt(max(map(abs, exponents))) + 1
    if q > 4:
        high = [e // q for e in exponents]
        low = [e - q * h for e, h in zip(exponents, high)]
        return _monomial(bases, high) ** q * _monomial(bases, low)
    return Fraction(
        prod([b**e for b, e in zip(bases, exponents) if e > 0]),
        prod([b**-e for b, e in zip(bases, exponents) if e < 0]),
    )


def match_transition(
    decomposition: MinkowskiDecomposition, basis=None
) -> TransitionReport:
    """Solve the matching between the smoothing mirror and the toric family.

    The character is pinned by requiring weight(v_i) = n_{v_i} at the basis
    points; each remaining lattice point v then gets the specialization
    q_v = n_v / weight(v).  The specialized family, rescaled by the character,
    is checked against g term by term, support included; failure would
    indicate a bug and raises VerificationFailedError.
    """
    polytope = decomposition.polytope
    d, bounds = polytope.dim, list(_column_bounds(polytope))  # for the checks too
    _, axes, slots = _checked_slots(decomposition, bounds)
    terms = _slot_terms(axes, slots)
    if basis is None:
        # g's support, which the kernel emits in lexicographic order, lies in P
        # by the Newton check, and the basis starts at P's first vertex
        basis = _default_basis(polytope, list(terms))
    else:  # only a basis from the caller can miss P
        basis = basis if isinstance(basis, BasisSimplex) else BasisSimplex(basis)
        basis._validate_in(polytope, bounds)  # the bounds walked above, not a second walk

    targets = {v: terms.get(v, 0) for v in basis.points}
    for v, n_v in targets.items():
        if n_v <= 0:
            raise InvalidBasisError(f"the mirror coefficient vanishes at basis point {v}")
    character = _basis_character(basis.points, list(targets.values()))

    # One walk of P's columns over g's slot rows, each weight num / den from one
    # power table per box axis: each basis weight must be n_v, every other point
    # gets q_v = n_v * den / num with n_v its slot (0 where g misses it), and the
    # family (1 on the basis, q_v elsewhere) must be g under the character term
    # by term, checked against g's terms, not the slots, and have g's support.
    gamma, low = character.gamma, axes[-1].start
    ys = list(_power_table(character.alpha[-1], axes[-1]).values())
    xs = list(_power_table(character.alpha[0], axes[0]).values()) if d == 2 else [(1, 1)]
    specialization, support, wrong = {}, 0, 0
    for (x, row), (_, lo, hi), (xn, xd) in zip(_rows(axes, slots), bounds, xs):
        key, num0, den0 = (x,)[2 - d :], gamma.numerator * xn, gamma.denominator * xd
        cut = slice(lo - low, hi - low + 1)
        for y, n_v, (yn, yd) in zip(range(lo, hi + 1), row[cut], ys[cut]):
            v, num, den = (*key, y), num0 * yn, den0 * yd
            if v in targets:
                if num != targets[v] * den:
                    raise VerificationFailedError(
                        f"the solved character gives weight {Fraction(num, den)} at basis "
                        f"point {v}, not n_v = {targets[v]}; this indicates an implementation bug"
                    )
                a = b = 1
            else:
                q = specialization[v] = Fraction(n_v * den, num)
                a, b = q.numerator, q.denominator
            wrong += num * a != terms.get(v, 0) * den * b
            support += a != 0
    if wrong or support != len(terms):
        raise VerificationFailedError(
            "character and specialization failed to reproduce the mirror; "
            "this indicates an implementation bug"
        )
    return TransitionReport._of(basis, character, specialization, True)  # no validator
