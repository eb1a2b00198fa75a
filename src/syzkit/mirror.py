"""SYZ mirror of a smoothing: wall factors, the defining function g, the disc
potential, and the open-invariant bookkeeping per chamber.

Symplectic areas and holonomies are replaced by the formal variables z0 and
z^v, so generating functions live in the exact Laurent ring; the chamber
position is the single integer l between -1 (below all walls) and p (above
all walls).
"""

import warnings
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import NamedTuple

from .algebra import LaurentPolynomial, newton_polytope
from .errors import SearchBudgetExceededError, ShapeMismatchError, VerificationFailedError
from .lattice import IntVec, UnimodularSimplex
from .minkowski import DEFAULT_SEARCH_BUDGET, MinkowskiDecomposition

SECTOR_D0 = "D0"
SECTOR_DINF = "Dinf"
SECTOR_NONE = "none"

_SECTORS = (SECTOR_D0, SECTOR_DINF, SECTOR_NONE)


@dataclass(frozen=True)
class DiscClass:
    """Disc class: boundary sector plus the wall multiplicity table n^i_j.

    Classes in the D0 or Dinf sector have Maslov index two; sector "none"
    marks a bare Maslov-zero combination.
    """

    sector: str
    multiplicities: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.sector not in _SECTORS:
            raise ValueError(f"sector must be one of {_SECTORS}")
        rows = tuple(tuple(int(x) for x in row) for row in self.multiplicities)
        object.__setattr__(self, "multiplicities", rows)
        for row in rows:
            if any(x < 0 for x in row):
                raise ValueError("multiplicities must be nonnegative")

    @property
    def maslov_index(self) -> int:
        return 2 if self.sector in (SECTOR_D0, SECTOR_DINF) else 0

    def to_json_dict(self) -> dict:
        return {
            "sector": self.sector,
            "multiplicities": [list(row) for row in self.multiplicities],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "DiscClass":
        return DiscClass(
            data["sector"], tuple(tuple(row) for row in data["multiplicities"])
        )


@dataclass(frozen=True, eq=True)
class GWTable:
    """Nonzero one-pointed invariants n_v indexed by lattice points."""

    entries: dict

    def __post_init__(self):
        clean = {}
        for point, n in dict(self.entries).items():
            n = int(n)
            if n <= 0:
                raise ValueError(f"invariant at {point} must be a positive integer")
            clean[tuple(int(x) for x in point)] = n
        object.__setattr__(self, "entries", clean)

    def count(self, point) -> int:
        return self.entries.get(tuple(point), 0)

    def __getitem__(self, point) -> int:
        return self.count(point)

    def points(self) -> list[IntVec]:
        return sorted(self.entries)

    def total(self) -> int:
        return sum(self.entries.values())

    def to_json_dict(self) -> dict:
        return {
            "entries": [{"point": list(v), "n": self.entries[v]} for v in self.points()]
        }


class SYZMirror(NamedTuple):
    factored: tuple[LaurentPolynomial, ...]
    expanded: LaurentPolynomial
    table: GWTable


def wall_factor(summand: UnimodularSimplex) -> LaurentPolynomial:
    """The wall-crossing function 1 + sum of z^u over the summand's generators."""
    terms = {(0,) * summand.dim: 1}
    for u in summand.generators:
        terms[u] = 1
    return LaurentPolynomial(summand.dim, terms)


def _slot_bytes(bound: int) -> int:
    """Bytes per packed coefficient: every value up to ``bound``, plus a spare bit."""
    return (bound.bit_length() + 8) // 8


def _wall_product(dim: int, summands) -> dict[IntVec, int]:
    """Nonzero coefficients of the product of the summands' wall factors.

    Kronecker substitution: each factor is shifted to nonnegative exponents,
    an exponent e in the bounding box of the product becomes the mixed-radix
    index sum(e_j * stride_j), and a polynomial becomes the integer
    sum(c_e * 2^(w * index)).  Every coefficient is a nonnegative integer at
    most g(1, ..., 1) = prod(1 + k_i), so w-bit slots never carry into each
    other and one bigint product multiplies all the factors.  The first
    coordinate has the largest stride, so the result comes out in
    lexicographic order of exponents.
    """
    offset = [0] * dim
    radix = [1] * dim
    shifted = []
    for s in summands:
        exps = ((0,) * dim,) + s.generators
        low = [min(e[j] for e in exps) for j in range(dim)]
        for j in range(dim):
            offset[j] += low[j]
            radix[j] += max(e[j] for e in exps) - low[j]
        shifted.append([[x - m for x, m in zip(e, low)] for e in exps])
    stride = [1] * dim
    for j in range(dim - 2, -1, -1):
        stride[j] = stride[j + 1] * radix[j + 1]
    bound = prod(1 + s.k for s in summands)
    width = _slot_bytes(bound)
    bits = 8 * width
    packed = prod(
        sum(1 << (bits * sum(x * t for x, t in zip(e, stride))) for e in exps)
        for exps in shifted
    )
    raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    slots = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    total = sum(slots)
    if total != bound:
        raise VerificationFailedError(
            f"the coefficients of g sum to {total}, not g(1, ..., 1) = {bound}; "
            "this indicates an implementation bug"
        )
    return {
        tuple(m + index // t % r for m, t, r in zip(offset, stride, radix)): n
        for index, n in enumerate(slots)
        if n
    }


def syz_mirror(decomposition: MinkowskiDecomposition) -> SYZMirror:
    """Wall factors in summand order, their exact product g, and the invariant table.

    The Newton polytope of the product is the decomposition's polytope, and
    the table holds the (positive integer) coefficients of g.
    """
    d = decomposition.polytope.dim
    factored = tuple(wall_factor(s) for s in decomposition.summands)
    coefficients = _wall_product(d, decomposition.summands)
    expanded = LaurentPolynomial(d, coefficients)
    if newton_polytope(expanded) != decomposition.polytope:
        raise VerificationFailedError(
            "the Newton polytope of g is not the decomposition's polytope; "
            "this indicates an implementation bug"
        )
    return SYZMirror(factored, expanded, GWTable(coefficients))


def disc_potential(decomposition: MinkowskiDecomposition) -> LaurentPolynomial:
    """z0 times the expanded mirror; term exponents are (1, v)."""
    return syz_mirror(decomposition).expanded.prepend_variable(1)


def _check_chamber(decomposition: MinkowskiDecomposition, chamber: int) -> None:
    if not -1 <= chamber <= decomposition.p:
        raise ValueError(
            f"chamber {chamber} outside -1..{decomposition.p}"
        )


def _check_shape(decomposition: MinkowskiDecomposition, beta: DiscClass) -> None:
    ks = decomposition.ks
    rows = beta.multiplicities
    if len(rows) != len(ks) or any(len(row) != k for row, k in zip(rows, ks)):
        raise ShapeMismatchError(
            "multiplicity table shape does not match the decomposition"
        )


def gw_invariant(
    decomposition: MinkowskiDecomposition, chamber: int, beta: DiscClass
) -> int:
    """One-pointed invariant of the class: 1 when each wall contributes at most
    one unit and only walls on the class's side of the fiber are touched.

    D0 classes may touch walls i <= chamber only; Dinf classes walls
    i > chamber only.  Maslov-zero classes always count 0.
    """
    _check_shape(decomposition, beta)
    _check_chamber(decomposition, chamber)
    if beta.sector == SECTOR_NONE:
        warnings.warn(
            "one-pointed invariants are defined for Maslov-index-two classes; "
            "a Maslov-zero class counts 0",
            stacklevel=2,
        )
        return 0
    lower = beta.sector == SECTOR_D0
    for i, row in enumerate(beta.multiplicities):
        touched = sum(row)
        if touched > 1:
            return 0
        if touched:
            if lower and i > chamber:
                return 0
            if not lower and i <= chamber:
                return 0
    return 1


def enumerate_gw_classes(
    decomposition: MinkowskiDecomposition,
    chamber: int,
    sector: str,
    budget: int | None = None,
) -> list[DiscClass]:
    """All classes in the sector with invariant 1, in deterministic order.

    The count is the product of (1 + k_i) over the walls on the sector's side
    of the fiber.  ``budget`` caps that count (default 10^7); a larger count
    raises SearchBudgetExceededError before any class is built.
    """
    if sector not in (SECTOR_D0, SECTOR_DINF):
        raise ValueError("sector must be 'D0' or 'Dinf'")
    _check_chamber(decomposition, chamber)
    lower = sector == SECTOR_D0
    ks = decomposition.ks
    active = [(i <= chamber) if lower else (i > chamber) for i in range(len(ks))]
    max_classes = DEFAULT_SEARCH_BUDGET if budget is None else int(budget)
    count = prod(1 + k for k, on in zip(ks, active) if on)
    if count > max_classes:
        raise SearchBudgetExceededError(
            f"{count} classes in sector {sector} at chamber {chamber} "
            f"exceed the budget of {max_classes}"
        )
    options = []
    for k, on in zip(ks, active):
        zero = (0,) * k
        if on:
            rows = [zero] + [
                tuple(1 if j == t else 0 for j in range(k)) for t in range(k)
            ]
        else:
            rows = [zero]
        options.append(rows)
    return [DiscClass(sector, combo) for combo in product(*options)]


def chamber_uv(
    decomposition: MinkowskiDecomposition, chamber: int
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Generating functions of the two sectors for a fiber in the given chamber.

    u collects z0 times the wall factors below the fiber, v collects z0^-1
    times those above; their product is the expanded mirror with the z0
    exponent cancelled.
    """
    _check_chamber(decomposition, chamber)
    d = decomposition.polytope.dim
    below = _wall_product(d, decomposition.summands[: chamber + 1])
    above = _wall_product(d, decomposition.summands[chamber + 1 :])
    return (
        LaurentPolynomial(d + 1, {(1,) + e: n for e, n in below.items()}),
        LaurentPolynomial(d + 1, {(-1,) + e: n for e, n in above.items()}),
    )
