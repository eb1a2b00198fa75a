"""Open invariants per chamber: disc classes, the one-pointed invariant of a
class, and the listing of the classes whose invariant is 1.

The invariant is pure combinatorics of the walls on the fiber's side, so
this module forms no polynomial and imports none of the algebra.
"""

import warnings
from itertools import product
from math import prod

from .errors import SearchBudgetExceededError, ShapeMismatchError, Value, json_int
from .minkowski import MinkowskiDecomposition, _cut, _search_budget

SECTOR_D0 = "D0"
SECTOR_DINF = "Dinf"
SECTOR_NONE = "none"

_SECTORS = (SECTOR_D0, SECTOR_DINF, SECTOR_NONE)


class DiscClass(Value):
    """Disc class: boundary sector plus the wall multiplicity table n^i_j.

    Classes in the D0 or Dinf sector have Maslov index two; sector "none"
    marks a bare Maslov-zero combination.
    """

    __slots__ = _fields = ("sector", "multiplicities")

    def __post_init__(self):
        if self.sector not in _SECTORS:
            raise ValueError(f"sector must be one of {_SECTORS}")
        rows = tuple(tuple(map(json_int, row)) for row in self.multiplicities)
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
        return DiscClass(data["sector"], data["multiplicities"])


def gw_invariant(
    decomposition: MinkowskiDecomposition, chamber: int, beta: DiscClass
) -> int:
    """One-pointed invariant of the class: 1 when each wall contributes at most
    one unit and only walls on the class's side of the fiber are touched.

    D0 classes may touch walls i <= chamber only; Dinf classes walls
    i > chamber only.  Maslov-zero classes always count 0.
    """
    rows, start = beta.multiplicities, 0
    for s, m in decomposition._runs:  # one row per wall, of its size: no ks is built
        k = s.k
        for row in rows[start:start + m]:
            if len(row) != k:
                rows = ()  # so that the count below fails
        start += m
    if start != len(rows):
        raise ShapeMismatchError("multiplicity table shape does not match the decomposition")
    cut = _cut(decomposition, chamber)
    if beta.sector == SECTOR_NONE:
        warnings.warn(
            "one-pointed invariants are defined for Maslov-index-two classes; "
            "a Maslov-zero class counts 0",
            stacklevel=2,
        )
        return 0
    far = rows[cut:] if beta.sector == SECTOR_D0 else rows[:cut]
    return int(all(sum(row) <= 1 for row in rows) and not any(map(any, far)))


def _wall_options(decomposition: MinkowskiDecomposition, chamber: int, sector: str) -> list:
    """The rows each wall takes in the sector's classes with invariant 1: the
    zero row or a unit row on the sector's side of the fiber, else the zero row."""
    if sector not in (SECTOR_D0, SECTOR_DINF):
        raise ValueError("sector must be 'D0' or 'Dinf'")
    cut, options, d0 = _cut(decomposition, chamber), [], sector == SECTOR_D0
    for s, m in decomposition._runs:  # a cut inside a run splits it
        far = [(0,) * s.k]
        near = far + [tuple(int(j == t) for j in range(s.k)) for t in range(s.k)]
        below = min(max(cut, 0), m)
        options += [near if d0 else far] * below + [far if d0 else near] * (m - below)
        cut -= m
    return options


def _class_count(decomposition: MinkowskiDecomposition, chamber: int, sector: str) -> int:
    """The number of classes in the sector with invariant 1: the product of
    (1 + k_i) over the walls on the sector's side of a fiber in the chamber."""
    return prod(map(len, _wall_options(decomposition, chamber, sector)))


def enumerate_gw_classes(
    decomposition: MinkowskiDecomposition,
    chamber: int,
    sector: str,
    budget: int | None = None,
) -> list[DiscClass]:
    """All classes in the sector with invariant 1, in deterministic order.

    The count is the product of (1 + k_i) over the walls on the sector's side
    of the fiber.  ``budget`` caps that count (default 10^7); a larger count
    raises SearchBudgetExceededError before any class is built, and a negative
    budget raises ValueError.
    """
    options = _wall_options(decomposition, chamber, sector)
    count, max_classes = prod(map(len, options)), _search_budget(budget)
    if count > max_classes:
        raise SearchBudgetExceededError(
            f"{count} classes in sector {sector} at chamber {chamber} "
            f"exceed the budget of {max_classes}"
        )
    return [DiscClass._of(sector, combo) for combo in product(*options)]
