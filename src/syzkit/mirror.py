"""SYZ mirror of a smoothing: wall factors, the defining function g, the disc
potential, and the two sector generating functions per chamber.

Symplectic areas and holonomies are replaced by the formal variables z0 and
z^v, so generating functions live in the exact Laurent ring; the chamber
position is the single integer l between -1 (below all walls) and p (above
all walls).
"""

import sys
from array import array
from collections import namedtuple
from itertools import chain, compress, product
from math import prod
from operator import mul

from .algebra import LaurentPolynomial
from .errors import OutputTooLargeError, Value, VerificationFailedError, json_int
from .lattice import IntVec, UnimodularSimplex, _column_bounds
from .minkowski import MinkowskiDecomposition, _cut


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

# Slot readers: the array type code of each width at 2, 4 and 8 bytes, and
# whether the host's byte order must be swapped to read little-endian slots.
_ARRAY = {array(code).itemsize: code for code in "QLIH"}
_SWAP = sys.byteorder == "big"


def _slot_bytes(bound: int) -> int:
    """Bytes per packed coefficient: every value up to ``bound``, plus a spare bit."""
    return (bound.bit_length() + 8) // 8


def _packed_product(parts, bits: int, xs: int) -> int:
    """The packed product of the parts ``(box, count)``: each box's moved
    vertices ``(x, y)`` make the factor sum(2^(x * xs + y * bits)), which is
    raised to its count, and the powers are multiplied left to right; the
    empty product is 1."""
    packed = 1
    for box, m in parts:
        factor = 0
        for x, y in box[2]:
            factor += 1 << x * xs + y * bits
        packed *= factor**m
    return packed


def _read_slots(packed: int, width: int):
    """The ``width``-byte little-endian slots of ``packed`` up to its last
    nonzero one: the ``bytes`` themselves at one byte, else ``int``s read by
    one ``array`` call at 2, 4 and 8 bytes and one at a time otherwise."""
    bits = 8 * width
    raw = packed.to_bytes((packed.bit_length() + bits - 1) // bits * width, "little")
    if width == 1:
        return raw
    if width not in _ARRAY:
        return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    slots = array(_ARRAY[width], raw)
    if _SWAP:
        slots.byteswap()
    return slots.tolist()


def _wall_slots(dim: int, parts) -> tuple:
    """The box ``axes`` (one ``range`` per coordinate) and the coefficients
    ``slots`` of the product of the wall factors of the parts ``(box,
    count)``, each box a summand's ``_kernel_box()``, one slot per box point
    in lexicographic order.

    Kronecker substitution: each factor is shifted to nonnegative exponents,
    an exponent e in the bounding box of the product (the count-weighted sum
    of the parts' boxes) becomes its row-major slot index, and a polynomial
    becomes the integer sum(c_e * 2^(w * index)).  Every coefficient is a
    nonnegative integer at most g(1, ..., 1) = prod(1 + k_i), so w-bit slots
    never carry into each other and bigint arithmetic multiplies the factors
    in ``_packed_product``: one power per part.  The product is read in
    whole slots by ``_read_slots``, so a carry anywhere fails the sum check.
    A product whose packed integer would pass MAX_PACKED_BYTES raises before
    any packing.
    """
    ox, oy, rx, ry, bound = 0, 0, 1, 1, 1
    for ((lx, ly), (ex, ey), _, size), m in parts:
        ox, oy, rx, ry = ox + m * lx, oy + m * ly, rx + m * ex, ry + m * ey
        bound *= size**m
    # a rank-1 box lies on the column x = 0, so rank 1 keeps the y axis only
    axes = (range(ox, ox + rx), range(oy, oy + ry))[2 - dim :]
    width = _slot_bytes(bound)
    size = prod(map(len, axes)) * width
    if size > MAX_PACKED_BYTES:
        raise OutputTooLargeError(
            f"the packed wall product would take {size} bytes, past the cap of {MAX_PACKED_BYTES}"
        )
    bits = 8 * width
    slots = _read_slots(_packed_product(parts, bits, bits * ry), width)
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
    and ``(1,)`` for z0 times g."""
    keys = product(*[(c,) for c in lead], *axes)
    return dict(compress(zip(keys, slots), slots))


def _rows(axes, slots) -> list:
    """``(x, row)`` for each slot row: the slots of column x in rank 2, and
    all slots, with x = 0, in rank 1."""
    if len(axes) == 1:
        return [(0, slots)]
    ry = len(axes[1])
    return list(zip(axes[0], [slots[i : i + ry] for i in range(0, len(slots), ry)]))


# _SIGNS[dim][point][b]: the value at the sign point eps (eps_j = -1 where
# bit j of ``point`` is set) of every z^v whose parity bits are b, and
# _FACTORS[dim][bits]: the values there of the wall factor 1 + sum z^u of
# generators u with parity bits ``bits``.
_SIGNS = {
    d: [[1 - 2 * ((b & point).bit_count() & 1) for b in range(1 << d)] for point in range(1 << d)]
    for d in (1, 2)
}
_FACTORS = {
    d: {
        bits: [1 + sum([sign[b] for b in bits]) for sign in signs]
        for k in (1, 2)
        for bits in product(range(1 << d), repeat=k)
    }
    for d, signs in _SIGNS.items()
}


def _check_g(polytope, runs, axes, slots, bounds=None) -> None:
    """g's Newton polytope is P: the box is P's bounding box, the slot of each
    vertex of P, a sum of one vertex per summand in one way only, is 1 (read
    by flat index), and the slots of each column x from lo(x) to hi(x), P's
    ``bounds`` or ``_column_bounds`` (one column in rank 1), sum to
    ``sum(slots)``, as unsigned slots do exactly when none outside P is
    nonzero.  And g(eps) == prod f_i(eps) at eps in {1, -1}^dim: z^v is -1 at
    eps when an odd number of the v_j with eps_j = -1 are odd, so the same
    sums, at even and odd offsets, bucket g by the parity bits of its
    exponents, and each run's factor is read once from ``_FACTORS``.  eps =
    (1, ..., 1) is the sum check; the others catch swaps across parities."""
    dim, verts, x0, low = polytope.dim, polytope.vertices, axes[0].start, axes[-1].start
    step, top = (len(axes[-1]), 1) if dim == 2 else (0, 0)  # in rank 1, v[0] is v[-1]
    parity = [0] * (1 << dim)
    for x, lo, hi in bounds or _column_bounds(polytope):
        a = (x - x0) * step + lo - low
        b = a + hi - lo + 1
        key = x & 1 | (lo & 1) << top
        parity[key] += sum(slots[a:b:2])
        parity[key ^ 1 << top] += sum(slots[a + 1 : b : 2])
    if (
        axes != tuple([range(min(c), max(c) + 1) for c in zip(*verts)])
        or not all(
            i < len(slots) and slots[i] == 1
            for i in [(v[0] - x0) * step + v[-1] - low for v in verts]
        )
        or sum(parity) != sum(slots)
    ):
        raise VerificationFailedError(
            "the Newton polytope of g is not the decomposition's polytope; "
            "this indicates an implementation bug"
        )
    values = _FACTORS[dim]
    factors = [
        (values[tuple([u[0] & 1 | (u[-1] & 1) << top for u in s.generators])], m) for s, m in runs
    ]
    for point, sign in enumerate(_SIGNS[dim][1:], 1):
        left = sum(map(mul, sign, parity))
        right = prod([f[point] ** m for f, m in factors])
        if left != right:
            eps = tuple(-1 if point >> j & 1 else 1 for j in range(dim))
            raise VerificationFailedError(
                f"g is {left} at the sign point {eps}, but the wall factors multiply "
                f"to {right} there; this indicates an implementation bug"
            )


def _checked_slots(decomposition: MinkowskiDecomposition, bounds=None) -> tuple:
    """``(runs, axes, slots)`` of g: the kernel's runs and slots, after the
    sum check and ``_check_g``, which reads P's column ``bounds`` when the
    caller has walked them."""
    polytope, runs = decomposition.polytope, decomposition._runs
    axes, slots = _wall_slots(polytope.dim, [(s._kernel_box(), m) for s, m in runs])
    _check_g(polytope, runs, axes, slots, bounds)
    return runs, axes, slots


def syz_mirror(decomposition: MinkowskiDecomposition) -> SYZMirror:
    """Wall factors in summand order, their exact product g, and the invariant table.

    The table holds the (positive integer) coefficients of g: it wraps the
    same dict as the expanded mirror.  The Newton polytope of g must be the
    decomposition's polytope, and g must equal the product of the wall
    factors at every sign point; both checks read one walk of P's columns.
    """
    runs, axes, slots = _checked_slots(decomposition)
    terms = _slot_terms(axes, slots)
    return SYZMirror(
        tuple(chain.from_iterable((wall_factor(s),) * m for s, m in runs)),
        LaurentPolynomial._of(decomposition.polytope.dim, terms),
        GWTable._of(terms),
    )


def disc_potential(decomposition: MinkowskiDecomposition) -> LaurentPolynomial:
    """z0 times the expanded mirror; term exponents are (1, v).  The kernel's
    checks run as in ``syz_mirror``."""
    _, axes, slots = _checked_slots(decomposition)
    return LaurentPolynomial._of(decomposition.polytope.dim + 1, _slot_terms(axes, slots, (1,)))


def chamber_uv(
    decomposition: MinkowskiDecomposition, chamber: int
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Generating functions of the two sectors for a fiber in the given chamber.

    u collects z0 times the wall factors below the fiber, v collects z0^-1
    times those above; their product is the expanded mirror with the z0
    exponent cancelled.
    """
    cut, d = _cut(decomposition, chamber), decomposition.polytope.dim
    below, above = [], []
    for s, m in decomposition._runs:  # a cut inside a run splits it
        box = s._kernel_box()
        if cut > 0:
            below.append((box, cut if cut < m else m))
        if cut < m:
            above.append((box, m - cut if cut > 0 else m))
        cut -= m
    (axes_u, u), (axes_v, v) = _wall_slots(d, below), _wall_slots(d, above)
    return (
        LaurentPolynomial._of(d + 1, dict(compress(zip(product((1,), *axes_u), u), u))),
        LaurentPolynomial._of(d + 1, dict(compress(zip(product((-1,), *axes_v), v), v))),
    )
