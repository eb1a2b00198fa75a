"""SYZ mirror of a smoothing: wall factors, the defining function g, the disc
potential, and the two sector generating functions per chamber.

Symplectic areas and holonomies are replaced by the formal variables z0 and
z^v, so generating functions live in the exact Laurent ring; the chamber
position is the single integer l between -1 (below all walls) and p (above
all walls).
"""

from collections import namedtuple
from itertools import chain, compress, product
from math import prod
from operator import mul
from struct import Struct

from .algebra import LaurentPolynomial
from .errors import OutputTooLargeError, Value, VerificationFailedError, json_int
from .gw import _cut
from .lattice import IntVec, UnimodularSimplex, _column_bounds
from .minkowski import MinkowskiDecomposition


class GWTable(Value):
    """Nonzero one-pointed invariants n_v indexed by lattice points."""

    __slots__ = _fields = ("entries",)

    def __post_init__(self):
        clean = {}
        for point, n in dict(self.entries).items():
            n = json_int(n)
            if n <= 0:
                raise ValueError(f"invariant at {point} must be a positive integer")
            clean[tuple(map(json_int, point))] = n
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


# The wall factors, their product g, and g's coefficients as a GWTable.
SYZMirror = namedtuple("SYZMirror", ("factored", "expanded", "table"))


def wall_factor(summand: UnimodularSimplex) -> LaurentPolynomial:
    """The wall-crossing function 1 + sum of z^u over the summand's generators."""
    return LaurentPolynomial._of(summand.dim, dict.fromkeys(summand.vertex_set(), 1))


# Cap on the bytes of the packed integer that one wall product forms.
MAX_PACKED_BYTES = 2**28

# Little-endian slot readers.
_UNPACK = {2: Struct("<H").iter_unpack, 4: Struct("<I").iter_unpack, 8: Struct("<Q").iter_unpack}


def _slot_bytes(bound: int) -> int:
    """Bytes per packed coefficient: every value up to ``bound``, plus a spare bit."""
    return (bound.bit_length() + 8) // 8


def _packed_product(types, bits: int) -> int:
    """The packed product: each type ``(slot indices, multiplicity)`` is
    packed once in ``bits``-bit slots and raised to its multiplicity, and the
    powers are multiplied left to right; the empty product is 1."""
    return prod(sum(1 << bits * index for index in indices) ** m for indices, m in types)


def _wall_slots(dim: int, runs) -> tuple:
    """The box ``axes`` (one ``range`` per coordinate) and the coefficients
    ``slots`` of the product of the wall factors of the runs
    ``(summand, count)``, one slot per box point in lexicographic order.

    Kronecker substitution: each factor is shifted to nonnegative exponents,
    an exponent e in the bounding box of the product (the count-weighted sum
    of the boxes the summands keep) becomes its row-major slot index, and a
    polynomial becomes the integer sum(c_e * 2^(w * index)).  Every
    coefficient is a nonnegative integer at most g(1, ..., 1) = prod(1 + k_i),
    so w-bit slots never carry into each other and bigint arithmetic
    multiplies the factors in ``_packed_product``: one power per run of
    nonzero count.  The product is read in whole slots (``struct`` at 2, 4
    and 8 bytes), so a carry anywhere fails the sum check.  Zero slots past
    the last nonzero one are not read.  A product whose packed integer would
    pass MAX_PACKED_BYTES raises before any packing.
    """
    boxes = [(s._kernel_box(), m) for s, m in runs if m]
    bound = prod([box[3] ** m for box, m in boxes])
    if dim == 1:  # 1 + z^u fills both slots of its box
        low = sum([m * box[0][0] for box, m in boxes])
        axes = (range(low, low + 1 + sum([m for _, m in boxes])),)
        types = [((0, 1), m) for _, m in boxes]
    else:
        ox, oy, rx, ry = 0, 0, 1, 1
        for ((lx, ly), (ex, ey), _, _), m in boxes:
            ox, oy, rx, ry = ox + m * lx, oy + m * ly, rx + m * ex, ry + m * ey
        axes = (range(ox, ox + rx), range(oy, oy + ry))
        types = [([x * ry + y for x, y in box[2]], m) for box, m in boxes]
    width = _slot_bytes(bound)
    size = prod(map(len, axes)) * width
    if size > MAX_PACKED_BYTES:
        raise OutputTooLargeError(
            f"the packed wall product would take {size} bytes, past the cap of {MAX_PACKED_BYTES}"
        )
    bits = 8 * width
    packed = _packed_product(types, bits)
    raw = packed.to_bytes((packed.bit_length() + bits - 1) // bits * width, "little")
    if width == 1:
        slots = raw
    elif width in _UNPACK:
        slots = list(chain.from_iterable(_UNPACK[width](raw)))
    else:
        slots = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    total = sum(slots)
    if total != bound:
        raise VerificationFailedError(
            f"the coefficients of g sum to {total}, not g(1, ..., 1) = {bound}; "
            "this indicates an implementation bug"
        )
    return axes, slots


def _slot_terms(axes, slots, lead: tuple[int, ...] = ()) -> dict[tuple, int]:
    """The terms ``lead + e: n_e`` of the nonzero slots, in lexicographic
    order, each ``n_e`` the ``int`` it was read as.  ``lead`` is ``()`` for g
    and ``(1,)`` or ``(-1,)`` for the halves of ``chamber_uv``."""
    keys = product(*[(c,) for c in lead], *axes)
    return dict(compress(zip(keys, slots), slots))


def _rows(axes, slots) -> list:
    """``(x, row)`` for each slot row: the slots of column x in rank 2, and
    all slots, with x = 0, in rank 1."""
    if len(axes) == 1:
        return [(0, slots)]
    ry = len(axes[1])
    return list(zip(axes[0], [slots[i : i + ry] for i in range(0, len(slots), ry)]))


def _check_newton(polytope, axes, rows, terms: dict[IntVec, int]) -> None:
    """The Newton polytope of g is P: the box is P's bounding box, every
    vertex of P carries a term, and in rank 2 every nonzero slot of column x
    lies between P's bounds lo(x) and hi(x).  In rank 1 the box is P."""
    verts, low = polytope.vertices, axes[-1].start
    if (
        axes != tuple(range(min(c), max(c) + 1) for c in zip(*verts))
        or not all(v in terms for v in verts)
        or polytope.dim == 2 and any(
            any(row[: lo - low]) or any(row[hi - low + 1 :])
            for (_, row), (_, lo, hi) in zip(rows, _column_bounds(polytope))
        )
    ):
        raise VerificationFailedError(
            "the Newton polytope of g is not the decomposition's polytope; "
            "this indicates an implementation bug"
        )


def _check_sign_points(dim: int, axes, rows, runs) -> None:
    """g(eps) == prod f_i(eps) at the 2^dim points eps in {1, -1}^dim.

    z^v is -1 at eps when an odd number of the v_j with eps_j = -1 are odd,
    so g is summed by the parity bits of its exponents: the even and odd
    offsets of each slot row of ``_rows``.  The factor of each run
    ``(summand, count)`` is evaluated once.  Unlike the sum check, this sees
    coefficients swapped between exponents of different parity.
    """
    top = dim - 1  # in rank 1, v[0] is v[-1]
    low = axes[-1].start & 1
    parity = [0] * (1 << dim)
    for x, row in rows:
        parity[x & 1 | low << top] += sum(row[0::2])
        parity[x & 1 | (low ^ 1) << top] += sum(row[1::2])
    factors = [([u[0] & 1 | (u[-1] & 1) << top for u in s.generators], m) for s, m in runs]
    for point in range(1 << dim):
        # sign[b] is the value at this point of every z^v whose parity bits are b
        sign = [1 - 2 * ((b & point).bit_count() & 1) for b in range(1 << dim)]
        left = sum(map(mul, sign, parity))
        right = prod((1 + sum(sign[b] for b in us)) ** m for us, m in factors)
        if left != right:
            eps = tuple(-1 if point >> j & 1 else 1 for j in range(dim))
            raise VerificationFailedError(
                f"g is {left} at the sign point {eps}, but the wall factors multiply "
                f"to {right} there; this indicates an implementation bug"
            )


def syz_mirror(decomposition: MinkowskiDecomposition) -> SYZMirror:
    """Wall factors in summand order, their exact product g, and the invariant table.

    The table holds the (positive integer) coefficients of g: it wraps the
    same dict as the expanded mirror.  The Newton polytope of g must be the
    decomposition's polytope, and g must equal the product of the wall
    factors at every sign point; both checks read the kernel's slot rows.
    """
    polytope = decomposition.polytope
    runs = decomposition._kernel_runs()
    axes, slots = _wall_slots(polytope.dim, runs)
    terms, rows = _slot_terms(axes, slots), _rows(axes, slots)
    _check_newton(polytope, axes, rows, terms)
    _check_sign_points(polytope.dim, axes, rows, runs)
    return SYZMirror(
        tuple(chain.from_iterable((wall_factor(s),) * m for s, m in runs)),
        LaurentPolynomial._of(polytope.dim, terms),
        GWTable._of(terms),
    )


def disc_potential(decomposition: MinkowskiDecomposition) -> LaurentPolynomial:
    """z0 times the expanded mirror; term exponents are (1, v)."""
    return syz_mirror(decomposition).expanded.prepend_variable(1)


def chamber_uv(
    decomposition: MinkowskiDecomposition, chamber: int
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Generating functions of the two sectors for a fiber in the given chamber.

    u collects z0 times the wall factors below the fiber, v collects z0^-1
    times those above; their product is the expanded mirror with the z0
    exponent cancelled.
    """
    cut = _cut(decomposition, chamber)
    below, above = [], []
    for s, m in decomposition._kernel_runs():  # a cut inside a run splits it
        j, cut = min(cut, m), max(cut - m, 0)
        below.append((s, j))
        above.append((s, m - j))
    d = decomposition.polytope.dim
    return (
        LaurentPolynomial._of(d + 1, _slot_terms(*_wall_slots(d, below), (1,))),
        LaurentPolynomial._of(d + 1, _slot_terms(*_wall_slots(d, above), (-1,))),
    )
