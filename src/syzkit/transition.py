"""Conifold-transition matching: normalize the toric-resolution mirror family
at a basis simplex by a monomial character and read off the parameter
specialization that lands the family exactly on the smoothing mirror.

The character is solved directly at the basis points: the exponent matrix
with rows (1, v_i) is unimodular because the consecutive differences of a
basis simplex form a lattice basis, so gamma and the alphas come out as exact
rational monomials in the basis coefficients.
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Character,
    Coefficient,
    LaurentPolynomial,
    apply_character,
    fraction_str,
)
from .errors import InvalidBasisError, VerificationFailedError
from .intlinalg import det, invert_unimodular
from .lattice import (
    IntVec,
    LatticePolytope,
    cross,
    lattice_points,
    primitive,
    vec_sub,
)
from .minkowski import MinkowskiDecomposition
from .mirror import syz_mirror


def parameter_name(point: IntVec) -> str:
    return "q_" + "_".join(str(x) for x in point)


@dataclass(frozen=True)
class BasisSimplex:
    """Lattice points v_1..v_n whose consecutive differences form a lattice basis."""

    points: tuple[IntVec, ...]

    def __post_init__(self):
        pts = tuple(tuple(int(x) for x in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise InvalidBasisError("empty basis")
        d = len(pts[0])
        if any(len(p) != d for p in pts) or len(pts) != d + 1:
            raise InvalidBasisError(f"expected {d + 1} points of rank {d}")
        diffs = [list(vec_sub(b, a)) for a, b in zip(pts, pts[1:])]
        if abs(det(diffs)) != 1:
            raise InvalidBasisError(
                f"consecutive differences {diffs} are not a lattice basis"
            )

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def validate_for(self, polytope: LatticePolytope) -> None:
        if self.dim != polytope.dim:
            raise InvalidBasisError("basis rank differs from the polytope rank")
        pts = set(lattice_points(polytope))
        for p in self.points:
            if p not in pts:
                raise InvalidBasisError(f"{p} is not a lattice point of the polytope")
        if self.points[0] not in polytope.vertices:
            raise InvalidBasisError(
                f"first basis point {self.points[0]} is not a vertex of the polytope"
            )

    @classmethod
    def default_for(cls, polytope: LatticePolytope, allowed=None) -> "BasisSimplex":
        """Deterministic choice: the lexicographic-minimum vertex first, then
        the lexicographically earliest lattice points whose consecutive
        differences stay unimodular.  ``allowed`` optionally restricts the
        candidate lattice points."""
        d = polytope.dim
        pool = lattice_points(polytope)
        if allowed is not None:
            keep = set(tuple(p) for p in allowed)
            pool = [p for p in pool if p in keep]
        v1 = polytope.vertices[0]
        if v1 not in pool:
            raise InvalidBasisError("the lexicographic-minimum vertex is not admissible")
        if d == 1:
            for p in pool:
                if p != v1 and abs(p[0] - v1[0]) == 1:
                    return cls((v1, p))
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
                    return cls((v1, v2, v3))
        raise InvalidBasisError("no unimodular chain of lattice points exists")


def _as_basis(basis) -> BasisSimplex:
    if isinstance(basis, BasisSimplex):
        return basis
    return BasisSimplex(tuple(tuple(int(x) for x in p) for p in basis))


@dataclass(frozen=True)
class TransitionReport:
    """Basis simplex, matching character, parameter specialization, and the
    exact-verification flag."""

    basis: BasisSimplex
    character: Character
    specialization: dict
    verified: bool

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


def toric_family(polytope: LatticePolytope, basis) -> LaurentPolynomial:
    """The normalized mirror family of a toric resolution: coefficient 1 at the
    basis points and a fresh parameter symbol at every other lattice point."""
    basis = _as_basis(basis)
    basis.validate_for(polytope)
    pts = lattice_points(polytope)
    chosen = set(basis.points)
    others = [p for p in pts if p not in chosen]
    params = tuple(parameter_name(p) for p in others)
    nparams = len(params)
    terms: dict[IntVec, Coefficient] = {}
    for p in basis.points:
        terms[p] = Coefficient.rational(1, nparams)
    for i, p in enumerate(others):
        terms[p] = Coefficient.parameter(i, nparams)
    return LaurentPolynomial(polytope.dim, terms, params)


def match_transition(
    decomposition: MinkowskiDecomposition, basis=None
) -> TransitionReport:
    """Solve the matching between the smoothing mirror and the toric family.

    The character is pinned by requiring weight(v_i) = n_{v_i} at the basis
    points; each remaining lattice point v then gets the specialization
    q_v = n_v / weight(v).  The result is verified by an exact polynomial
    identity; failure would indicate a bug and raises VerificationFailedError.
    """
    polytope = decomposition.polytope
    mirror = syz_mirror(decomposition)
    if basis is None:
        positive = [v for v in lattice_points(polytope) if mirror.table.count(v) > 0]
        basis = BasisSimplex.default_for(polytope, allowed=positive)
    else:
        basis = _as_basis(basis)
    basis.validate_for(polytope)

    targets = []
    for v in basis.points:
        n_v = mirror.table.count(v)
        if n_v <= 0:
            raise InvalidBasisError(
                f"the mirror coefficient vanishes at basis point {v}"
            )
        targets.append(Fraction(n_v))
    matrix = [[1, *v] for v in basis.points]
    inverse = invert_unimodular(matrix)
    n = len(matrix)
    solved = []
    for r in range(n):
        value = Fraction(1)
        for i in range(n):
            value *= targets[i] ** inverse[r][i]
        solved.append(value)
    character = Character(solved[0], tuple(solved[1:]))
    for v, t in zip(basis.points, targets):
        if character.weight(v) != t:
            raise VerificationFailedError(
                f"the solved character gives weight {character.weight(v)} at basis "
                f"point {v}, not n_v = {t}; this indicates an implementation bug"
            )

    chosen = set(basis.points)
    others = [p for p in lattice_points(polytope) if p not in chosen]
    specialization = {
        v: Fraction(mirror.table.count(v)) / character.weight(v) for v in others
    }
    family = toric_family(polytope, basis)
    specialized = family.specialize(
        {parameter_name(v): q for v, q in specialization.items()}
    )
    if apply_character(specialized, character) != mirror.expanded:
        raise VerificationFailedError(
            "character and specialization failed to reproduce the mirror; "
            "this indicates an implementation bug"
        )
    return TransitionReport(
        basis=basis,
        character=character,
        specialization=specialization,
        verified=True,
    )
