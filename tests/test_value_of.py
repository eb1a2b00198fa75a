"""The ``Value._of`` contract: an instance stored through the per-class slot
setters equals the one the public constructor builds from the same values.

The examples are built inside the tests, by public constructors only, so a
broken ``_of`` fails these tests and does not stop their collection.
"""

from fractions import Fraction

import pytest

from syzkit import (
    BasisSimplex,
    CayleyCone,
    Character,
    DiscClass,
    GWTable,
    LatticePolytope,
    MinkowskiDecomposition,
    RaySet,
    TransitionReport,
    UnimodularSimplex,
)
from syzkit.errors import Value


def public_examples():
    """One value of each class, built by its public constructor."""
    hexagon = LatticePolytope(2, ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)))
    units = [UnimodularSimplex(2, (u,)) for u in ((1, 0), (0, 1), (1, 1))]
    basis = BasisSimplex(((0, 1), (1, 1), (1, 2)))
    character = Character(Fraction(3, 2), (Fraction(1), Fraction(2, 5)))
    return [
        hexagon,
        RaySet(frozenset({(1, 0), (0, -1)})),
        UnimodularSimplex(2, ((1, 0), (1, 1))),
        MinkowskiDecomposition(hexagon, (3, -4), units[::-1]),
        CayleyCone(((0, 0, 1), (1, 0, 1))),
        character,
        DiscClass("D0", ((1, 0), (0,))),
        GWTable({(0, 0): 1, (1, 1): 3}),
        basis,
        TransitionReport(basis, character, {(0, 0): Fraction(1, 2)}, True),
    ]


def value_classes():
    """Every subclass of ``Value`` that syzkit defines, at any depth."""
    found, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("syzkit."):
                found.add(cls)
    return found


NAMES = ["LatticePolytope", "RaySet", "UnimodularSimplex", "MinkowskiDecomposition", "CayleyCone",
         "Character", "DiscClass", "GWTable", "BasisSimplex", "TransitionReport"]


def test_every_value_class_has_an_example():
    examples = public_examples()
    assert [type(value).__name__ for value in examples] == NAMES
    assert {type(value) for value in examples} == value_classes()


@pytest.mark.parametrize("name", NAMES)
def test_of_builds_what_the_constructor_builds(name):
    """``_of`` on the canonical values a public constructor stored builds an
    instance equal to the constructor's, with those values in the first
    slots, in order, and the slots after them (``UnimodularSimplex._box``)
    unset; assignment still raises.  A subclass stores the same way."""
    public = public_examples()[NAMES.index(name)]
    cls = type(public)
    width = len(cls._fields)
    stored = tuple(getattr(public, name) for name in cls.__slots__[:width])
    fields = tuple(getattr(public, name) for name in cls._fields)
    for owner in (cls, type("Sub", (cls,), {})):
        built, again = owner._of(*stored), owner(*fields)
        assert type(built) is owner and built == again and not built != again
        for instance in (built, again):
            assert tuple(getattr(instance, name) for name in cls.__slots__[:width]) == stored
            assert tuple(getattr(instance, name) for name in cls._fields) == fields
            assert not any(hasattr(instance, name) for name in cls.__slots__[width:])
        for name in (*cls.__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(built, name, None)
    assert cls._of(*stored) == public
