"""Conifold-transition matching: normalize the toric-resolution mirror family
at a basis simplex by a monomial character and read off the parameter
specialization that lands the family exactly on the smoothing mirror.

The character is solved directly at the basis points: the exponent matrix
with rows (1, v_i) is unimodular because the consecutive differences of a
basis simplex form a lattice basis, so every pivot of its column reduction
is 1 and gamma and the alphas come out as exact rational monomials in the
basis coefficients.
"""

from fractions import Fraction

from .algebra import Character, _weight_pairs, fraction_str
from .errors import InvalidBasisError, Value, VerificationFailedError, json_int
from .intlinalg import solve_multiplicative
from .lattice import (
    SUPPORTED_DIMS,
    IntVec,
    LatticePolytope,
    cross,
    is_unimodular_simplex,
    lattice_points,
    primitive,
    vec_sub,
)
from .minkowski import MinkowskiDecomposition
from .mirror import syz_mirror


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
        _validate(self, polytope, lattice_points(polytope))

    @classmethod
    def default_for(cls, polytope: LatticePolytope) -> "BasisSimplex":
        """Deterministic choice: the lexicographic-minimum vertex first, then
        the lexicographically earliest lattice points whose consecutive
        differences stay unimodular."""
        return _default_basis(polytope, lattice_points(polytope))


def _validate(basis: BasisSimplex, polytope: LatticePolytope, points) -> None:
    """``validate_for`` against the polytope's already listed lattice points."""
    if basis.dim != polytope.dim:
        raise InvalidBasisError("basis rank differs from the polytope rank")
    pts = set(points)
    for p in basis.points:
        if p not in pts:
            raise InvalidBasisError(f"{p} is not a lattice point of the polytope")
    if basis.points[0] not in polytope.vertices:
        raise InvalidBasisError(
            f"first basis point {basis.points[0]} is not a vertex of the polytope"
        )


def _default_basis(polytope: LatticePolytope, pool: list[IntVec]) -> BasisSimplex:
    """``default_for`` over the candidate lattice points ``pool``, in lexicographic
    order; ``pool`` holds every vertex of the polytope."""
    v1 = polytope.vertices[0]
    if polytope.dim == 1:
        for p in pool:
            if p != v1 and abs(p[0] - v1[0]) == 1:
                return BasisSimplex((v1, p))
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
                return BasisSimplex((v1, v2, v3))
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
    mirror = syz_mirror(decomposition)
    points = lattice_points(polytope)
    if basis is None:
        basis = _default_basis(polytope, [v for v in points if mirror.table.count(v) > 0])
    elif not isinstance(basis, BasisSimplex):
        basis = BasisSimplex(basis)
    _validate(basis, polytope, points)

    targets = []
    for v in basis.points:
        n_v = mirror.table.count(v)
        if n_v <= 0:
            raise InvalidBasisError(
                f"the mirror coefficient vanishes at basis point {v}"
            )
        targets.append(n_v)
    solved = solve_multiplicative([(1, *v) for v in basis.points], targets, basis.dim + 1)
    if solved is None:
        raise VerificationFailedError("no character solves the basis system; this indicates a bug")
    character = Character(solved[0], tuple(solved[1:]))
    weights = _weight_pairs(character, points)
    for v, n_v in zip(basis.points, targets):
        num, den = weights[v]
        if num != n_v * den:
            raise VerificationFailedError(
                f"the solved character gives weight {Fraction(num, den)} at basis "
                f"point {v}, not n_v = {n_v}; this indicates an implementation bug"
            )

    chosen = set(basis.points)
    specialization = {
        v: Fraction(mirror.table.count(v) * den, num)
        for v, (num, den) in weights.items()
        if v not in chosen
    }
    # Coefficient 1 on the basis and q_v elsewhere; under the character this
    # must be g term by term, support included, since g may miss interior
    # points (q_v = 0 there).  Each term is compared by cross-multiplication:
    # num * q.numerator == n_v * den * q.denominator.
    entries = mirror.table.entries
    family = dict.fromkeys(basis.points, (1, 1)) | {
        v: (q.numerator, q.denominator) for v, q in specialization.items() if q
    }
    if family.keys() != entries.keys() or any(
        weights[v][0] * a != entries[v] * weights[v][1] * b for v, (a, b) in family.items()
    ):
        raise VerificationFailedError(
            "character and specialization failed to reproduce the mirror; "
            "this indicates an implementation bug"
        )
    return TransitionReport(basis, character, specialization, True)
