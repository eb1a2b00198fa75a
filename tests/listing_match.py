"""The transition match as a listing of P's lattice points: the oracle of the
column walk in ``syzkit.transition.match_transition``.

It reads g through ``syz_mirror``, lists P with ``lattice_points``, takes
every weight from ``_weight_pairs`` and every n_v from ``GWTable.count``,
and runs the same basis-weight, term-by-term and support checks, so its
report, and the error it raises, must equal the walk's.
"""

from fractions import Fraction

from syzkit import BasisSimplex, InvalidBasisError, VerificationFailedError, lattice_points
from syzkit import syz_mirror
from syzkit.algebra import _weight_pairs
from syzkit.transition import TransitionReport, _basis_character, _default_basis


def listing_match(decomposition, basis=None) -> TransitionReport:
    polytope = decomposition.polytope
    mirror = syz_mirror(decomposition)
    points = lattice_points(polytope)
    if basis is None:
        basis = _default_basis(polytope, list(mirror.table.entries))
    else:
        basis = basis if isinstance(basis, BasisSimplex) else BasisSimplex(basis)
        basis.validate_for(polytope)

    targets = {v: mirror.table.count(v) for v in basis.points}
    for v, n_v in targets.items():
        if n_v <= 0:
            raise InvalidBasisError(f"the mirror coefficient vanishes at basis point {v}")
    character = _basis_character(basis.points, list(targets.values()))

    entries, count = mirror.table.entries, mirror.table.count
    specialization, support, wrong = {}, 0, 0
    for v, (num, den) in _weight_pairs(character, points).items():
        if v in targets:
            if num != targets[v] * den:
                raise VerificationFailedError(
                    f"the solved character gives weight {Fraction(num, den)} at basis "
                    f"point {v}, not n_v = {targets[v]}; this indicates an implementation bug"
                )
            a = b = 1
        else:
            q = specialization[v] = Fraction(count(v) * den, num)
            a, b = q.numerator, q.denominator
        wrong += num * a != entries.get(v, 0) * den * b
        support += a != 0
    if wrong or support != len(entries):
        raise VerificationFailedError(
            "character and specialization failed to reproduce the mirror; "
            "this indicates an implementation bug"
        )
    return TransitionReport(basis, character, specialization, True)
