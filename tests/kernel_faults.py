"""Corrupted-kernel injections, shared by the in-process tests and their run
under ``python -O``.  Each patches one seam of ``syzkit.mirror`` so that
the wall kernel hands back a wrong product, and names the check that must
catch it: ``syz_mirror``, ``disc_potential`` and ``match_transition``,
which reads the checked kernel directly, must each raise
``VerificationFailedError`` with that text.  ``chamber_uv`` runs the sum
check alone, on each half, so it must raise on the injections that check
catches, at chambers -1 and p.  Standard library and syzkit only, so that
a bare ``python -O`` can import it.

    python -O tests/kernel_faults.py

prints one line per injection and entry point, ``caught`` or ``missed``.
"""

import sys

from syzkit import MinkowskiDecomposition, UnimodularSimplex, VerificationFailedError, hull
from syzkit import enumerate_decompositions
from syzkit import chamber_uv, disc_potential, match_transition, syz_mirror
from syzkit import mirror


def steps(n):
    """The segment [0, n] as n unit steps."""
    return MinkowskiDecomposition(hull([(0,), (n,)]), (0,), (UnimodularSimplex(1, ((1,),)),) * n)


def hexagon_triangles():
    """The hexagon as two triangles: g = (1 + x + xy)(1 + y + xy) in a 3 x 3 box."""
    corners = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]
    parts = (UnimodularSimplex(2, ((1, 0), (1, 1))), UnimodularSimplex(2, ((0, 1), (1, 1))))
    return MinkowskiDecomposition(hull(corners), (0, 0), parts)


def thin_triangle():
    """The unimodular triangle 0, (2, 1), (1, 1) as its own one summand: g is
    1 + xy + x^2 y in a 3 x 2 box, and its lower edge, of slope 1/2, is the one
    edge whose columns ``_column_bounds`` rounds one by one."""
    parts = (UnimodularSimplex(2, ((2, 1), (1, 1))),)
    return MinkowskiDecomposition(hull([(0, 0), (2, 1), (1, 1)]), (0, 0), parts)


def zonotope_3_2():
    """Z(3,2), the sum of [0, 2 d] for d = (1, 0), (0, 1), (1, 1), as the
    first decomposition the search returns: g fills a 5 x 5 box."""
    corners = [(0, 0), (2, 0), (4, 2), (4, 4), (2, 4), (0, 2)]
    return enumerate_decompositions(hull(corners))[0]


def _slots_edited(edit):
    """A ``_wall_slots`` that hands its slots, padded to the whole box with
    the zero slots the kernel does not read, through ``edit(axes, slots)``."""
    real = mirror._wall_slots

    def edited(dim, parts):
        axes, slots = real(dim, parts)
        size = 1
        for axis in axes:
            size *= len(axis)
        return edit(axes, list(slots) + [0] * (size - len(slots)))

    return edited


def _set_slot(index, value):
    def edit(axes, slots):
        slots[index] = value
        return axes, slots

    return edit


def _swap_slots(i, j):
    def edit(axes, slots):
        slots[i], slots[j] = slots[j], slots[i]
        return axes, slots

    return edit


def _packed_plus(delta):
    real = mirror._packed_product
    return lambda *args: real(*args) + delta


# name: (decomposition, {seam: replacement} built on first use, the check's text)
INJECTIONS = {
    # one-byte slots cannot hold C(21, 10) = 352716
    "carry between slots": (lambda: steps(21), lambda: {"_slot_bytes": lambda bound: 1}, "sum to"),
    # [0, 7] packs 8 two-byte slots: a unit in the ninth is read and summed
    "carry past the box": (
        lambda: steps(7), lambda: {"_packed_product": _packed_plus(1 << 16 * 8)}, "sum to"),
    "top vertex dropped": (
        hexagon_triangles, lambda: {"_wall_slots": _slots_edited(_set_slot(8, 0))},
        "Newton polytope"),
    # the kernel reads no zero slot past the last nonzero one
    "top vertex past the last read slot": (
        hexagon_triangles,
        lambda: {"_wall_slots": _slots_edited(lambda axes, slots: (axes, slots[:8]))},
        "Newton polytope"),
    # (2, 0) lies in the box but not in the hexagon
    "slot outside P": (
        hexagon_triangles, lambda: {"_wall_slots": _slots_edited(_set_slot(6, 1))},
        "Newton polytope"),
    # (1, 0) lies in the box but below the edge of slope 1/2, outside P
    "slot outside P by a fractional edge": (
        thin_triangle, lambda: {"_wall_slots": _slots_edited(_set_slot(2, 1))},
        "Newton polytope"),
    "box shifted": (
        hexagon_triangles,
        lambda: {"_wall_slots": _slots_edited(
            lambda axes, slots: (tuple(range(a.start + 1, a.stop + 1) for a in axes), slots))},
        "Newton polytope"),
    # A vertex slot swapped with a slot of its parity class keeps the sum,
    # the parity buckets and the support: 1, 4, 6, 4, 1 read as 6, 4, 1, 4, 1
    "vertex slot swapped within its parity": (
        lambda: steps(4), lambda: {"_wall_slots": _slots_edited(_swap_slots(0, 2))},
        "Newton polytope"),
    # the vertex (0, 0) and the centre (2, 2) of Z(3,2), both even in x and y
    "Z(3,2) vertex slot swapped with the centre": (
        zonotope_3_2, lambda: {"_wall_slots": _slots_edited(_swap_slots(0, 12))},
        "Newton polytope"),
    # g = 1 + 6z + 15z^2 + ... on [0, 6] in one-byte slots: 6 and 15 swapped
    "slots swapped": (
        lambda: steps(6), lambda: {"_packed_product": _packed_plus((9 << 8) - (9 << 16))},
        "sign point"),
}

ENTRY_POINTS = {
    "syz_mirror": syz_mirror, "disc_potential": disc_potential, "match_transition": match_transition
}

# At chamber -1 the whole product lies above the fiber, at p below it; the
# other half is the empty product.
HALF_ENTRY_POINTS = {
    "chamber_uv at -1": lambda decomposition: chamber_uv(decomposition, -1),
    "chamber_uv at p": lambda decomposition: chamber_uv(decomposition, decomposition.p),
}

# The injections that the sum check catches, which chamber_uv runs too.
SUM_CHECKED = [name for name, (_, _, match) in INJECTIONS.items() if match == "sum to"]


def entry_points(name):
    """The entry points that must catch the injection ``name``."""
    return {**ENTRY_POINTS, **HALF_ENTRY_POINTS} if name in SUM_CHECKED else ENTRY_POINTS


def inject(name, setattr):
    """Apply the injection ``name`` through ``setattr(module, seam, value)``;
    return its decomposition and the text its check raises with."""
    decomposition, seams, match = INJECTIONS[name]
    for seam, value in seams().items():
        setattr(mirror, seam, value)
    return decomposition(), match


def caught(call, decomposition, match) -> bool:
    try:
        call(decomposition)
    except VerificationFailedError as exc:
        return match in str(exc)
    return False


def main() -> int:
    missed = 0
    for name in INJECTIONS:
        for entry, call in entry_points(name).items():
            saved = dict(vars(mirror))
            decomposition, match = inject(name, setattr)
            ok = caught(call, decomposition, match)
            vars(mirror).update(saved)
            missed += not ok
            print("caught" if ok else "missed", sys.flags.optimize, entry, name, sep=": ")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
