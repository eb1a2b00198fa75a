"""Package-level contracts: the value classes, the lazily resolved package
names, and the modules each CLI command loads at start-up."""

import copy
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import syzkit
from syzkit import (
    BasisSimplex,
    CayleyCone,
    Character,
    DiscClass,
    GWTable,
    LatticePolytope,
    LaurentPolynomial,
    MinkowskiDecomposition,
    RaySet,
    SYZMirror,
    TransitionReport,
    UnimodularSimplex,
    apply_character,
    cayley_cone,
    chamber_uv,
    disc_potential,
    dual_fan_check,
    enumerate_decompositions,
    enumerate_gw_classes,
    gw_invariant,
    hull,
    match_transition,
    normal_fan_rays,
    solve_character_match,
    syz_mirror,
    tropical_rays,
)
from syzkit.errors import Value
from conftest import HEXAGON_CORNERS, ap_decomposition, seg, tri, zonotope

# The declared fields of every public value class, in constructor order.
FIELDS = {
    LatticePolytope: ("dim", "vertices"),
    RaySet: ("rays",),
    UnimodularSimplex: ("dim", "generators"),
    MinkowskiDecomposition: ("polytope", "translation", "summands"),
    CayleyCone: ("generators",),
    Character: ("gamma", "alpha"),
    DiscClass: ("sector", "multiplicities"),
    GWTable: ("entries",),
    BasisSimplex: ("points",),
    TransitionReport: ("basis", "character", "specialization", "verified"),
}

# These hold dicts, so hashing them raises TypeError.
UNHASHABLE = (GWTable, TransitionReport)


def fields_of(value, cls=None):
    return tuple(getattr(value, name) for name in FIELDS[cls or type(value)])


def hashed_fields(value):
    """What ``hash(value)`` hashes: the fields, except that a decomposition
    hashes its stored polytope, translation and runs, so that no hash
    expands its summands.  Equal decompositions have equal runs."""
    if isinstance(value, MinkowskiDecomposition):
        return (value.polytope, value.translation, *value._runs)
    return fields_of(value)


def examples():
    """(label, value) pairs: every value class through its public
    constructor, and through ``_of`` as a stage builds it, where one does."""
    hexagon = hull(HEXAGON_CORNERS)
    segments = (seg((1, 0)), seg((0, 1)), seg((1, 1)))
    public = MinkowskiDecomposition(hexagon, (0, 0), segments)
    (built, _) = enumerate_decompositions(hexagon)
    report = match_transition(public, [(0, 1), (1, 1), (1, 2)])
    default = match_transition(built)
    f = LaurentPolynomial(2, {(0, 0): 1, (1, 0): 2, (0, 1): Fraction(1, 3)})
    matched = solve_character_match(f, apply_character(f, Character(Fraction(5, 2), (3, 7))))
    return [
        ("LatticePolytope", LatticePolytope(2, ((0, 0), (1, 0), (0, 1)))),
        ("LatticePolytope._of", hexagon),
        ("RaySet", RaySet(frozenset({(1, 0), (0, -1)}))),
        ("RaySet._of", tropical_rays(tri((1, 0), (1, 1)))),
        ("UnimodularSimplex", tri((1, 0), (1, 1))),
        ("MinkowskiDecomposition", public),
        ("MinkowskiDecomposition._of", built),
        ("CayleyCone", CayleyCone(((0, 0, 1), (1, 0, 1)))),
        ("CayleyCone._of", cayley_cone(built)),
        ("Character", Character(Fraction(3, 2), (Fraction(1), Fraction(2, 5)))),
        ("Character._of", matched),
        ("DiscClass", DiscClass("D0", ((1, 0), (0,)))),
        ("DiscClass._of", enumerate_gw_classes(public, 1, "D0")[-1]),
        ("GWTable", GWTable({(0, 0): 1, (1, 1): 3})),
        ("GWTable._of", syz_mirror(public).table),
        ("BasisSimplex", report.basis),
        ("BasisSimplex._of", default.basis),
        ("TransitionReport", TransitionReport(*fields_of(report))),
        ("TransitionReport._of", report),
    ]


EXAMPLES = examples()


@pytest.mark.parametrize("label, value", EXAMPLES, ids=[label for label, _ in EXAMPLES])
class TestValueClasses:
    def test_hash_is_the_hash_of_the_fields(self, label, value):
        if isinstance(value, UNHASHABLE):
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(hashed_fields(value))

    def test_equal_to_a_rebuilt_copy(self, label, value):
        cls = type(value)
        again = cls(*fields_of(value))
        assert again is not value
        assert again == value and not again != value
        assert cls(**dict(zip(FIELDS[cls], fields_of(value)))) == value
        assert copy.copy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_unequal_to_a_subclass_or_a_foreign_object(self, label, value):
        cls = type(value)
        sub = type("Sub", (cls,), {})(*fields_of(value))
        assert fields_of(sub, cls) == fields_of(value)
        assert value != sub and sub != value
        assert not value == sub and not sub == value
        assert value != fields_of(value)
        assert value != object()

    def test_assignment_raises(self, label, value):
        for name in (*FIELDS[type(value)], "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, FIELDS[type(value)][0])

    def test_the_constructor_takes_exactly_the_fields(self, label, value):
        cls = type(value)
        values = fields_of(value)
        for args, kwargs in (
            (values[:-1], {}),
            ((*values, None), {}),
            (values, {"extra": None}),
            (values, {FIELDS[cls][0]: values[0]}),
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_repr_names_the_fields(self, label, value):
        text = repr(value)
        assert text.startswith(type(value).__name__ + "(")
        assert all(f"{name}=" in text for name in FIELDS[type(value)])

    def test_fields_read_as_one_tuple(self, label, value):
        """Each class, and each subclass, reads its fields with one
        ``attrgetter``, a one-field class as a 1-tuple too: hash, equality,
        ``repr`` and pickling see what a field-by-field read gives."""
        cls = type(value)
        values = fields_of(value)
        for instance in (value, type("Sub", (cls,), {})(*values)):
            assert type(instance._values(instance)) is tuple
            assert instance._values(instance) == values
            assert instance.__reduce__() == (type(instance), values)
        listed = ", ".join(f"{name}={v!r}" for name, v in zip(FIELDS[cls], values))
        assert repr(value) == f"{cls.__qualname__}({listed})"
        again = pickle.loads(pickle.dumps(value))
        assert again == value and repr(again) == repr(value)
        if not isinstance(value, UNHASHABLE):
            assert hash(value) == hash(hashed_fields(value)) == hash(again)


def rule_inputs():
    """The inputs of the stages ``test_every_stage_skips_the_validators``
    runs, built through the public constructors: rank-1 and rank-2
    decompositions, each with a disc class of its walls and a basis."""
    hexagon = hull(HEXAGON_CORNERS)
    decs = [ap_decomposition(3), ap_decomposition(0)]
    decs += [MinkowskiDecomposition(hexagon, (0, 0), (seg((1, 0)), seg((0, 1)), seg((1, 1))))]
    decs += [MinkowskiDecomposition(hexagon, (0, 0), (tri((1, 0), (1, 1)), tri((0, 1), (1, 1))))]
    decs += [MinkowskiDecomposition(d.polytope, d.translation, d.summands)
             for d in enumerate_decompositions(zonotope(4, 3))[:3]]
    classes = [DiscClass("D0", [[0] * s.k for s in d.summands]) for d in decs]
    bases = [BasisSimplex(match_transition(d).basis.points) for d in decs]
    f = LaurentPolynomial(2, {(0, 0): 1, (1, 0): 2, (0, 1): Fraction(1, 3), (2, 5): 4})
    g = LaurentPolynomial(2, apply_character(f, Character(Fraction(5, 2), (3, 7))).terms)
    return decs, classes, bases, f, g


RULE_DECS, RULE_CLASSES, RULE_BASES, RULE_F, RULE_G = rule_inputs()
RANK_2 = [d for d in RULE_DECS if d.polytope.dim == 2]

# Each stage, run on the inputs above.
STAGES = {
    "enumerate_decompositions": lambda: [enumerate_decompositions(d.polytope) for d in RULE_DECS],
    "syz_mirror": lambda: [syz_mirror(d) for d in RULE_DECS],
    "disc_potential": lambda: [disc_potential(d) for d in RULE_DECS],
    "chamber_uv": lambda: [chamber_uv(d, c) for d in RULE_DECS for c in range(-1, d.p + 1)],
    "enumerate_gw_classes": lambda: [
        enumerate_gw_classes(d, c, sector)
        for d in RULE_DECS for c in range(-1, d.p + 1) for sector in ("D0", "Dinf")
    ],
    "gw_invariant": lambda: [
        gw_invariant(d, c, beta)
        for d, beta in zip(RULE_DECS, RULE_CLASSES) for c in range(-1, d.p + 1)
    ],
    "match_transition_default_basis": lambda: [match_transition(d) for d in RULE_DECS],
    "match_transition_given_basis": lambda: [
        match_transition(d, basis) for d, basis in zip(RULE_DECS, RULE_BASES)
    ],
    "tropical_rays": lambda: [tropical_rays(s) for d in RANK_2 for s, _ in d._runs],
    "normal_fan_rays": lambda: [normal_fan_rays(d.polytope) for d in RANK_2],
    "dual_fan_check": lambda: [dual_fan_check(d) for d in RANK_2],
    "cayley_cone": lambda: [cayley_cone(d) for d in RULE_DECS],
    "solve_character_match": lambda: [solve_character_match(RULE_F, RULE_G)],
}


@pytest.mark.parametrize("stage", STAGES)
def test_every_stage_skips_the_validators(stage, monkeypatch):
    """Values are validated where input enters, by the public constructors:
    every value a stage builds is canonical by construction and wrapped with
    ``_of``.  With ``Value.__init__`` and ``LaurentPolynomial.__init__``
    made to raise, each stage returns what it returns with them."""
    expected = STAGES[stage]()
    assert expected and expected != [None]

    def validated(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} built in {stage} was validated")

    monkeypatch.setattr(Value, "__init__", validated)
    monkeypatch.setattr(LaurentPolynomial, "__init__", validated)
    assert STAGES[stage]() == expected


def test_syz_mirror_replace():
    mirror = syz_mirror(MinkowskiDecomposition(hull(HEXAGON_CORNERS), (0, 0),
                                               (seg((1, 0)), seg((0, 1)), seg((1, 1)))))
    assert isinstance(mirror, SYZMirror)
    assert SYZMirror._fields == ("factored", "expanded", "table")
    table = GWTable({(0, 0): 1})
    swapped = mirror._replace(table=table)
    assert swapped.table is table
    assert swapped.factored is mirror.factored and swapped.expanded is mirror.expanded


class TestLazyNames:
    def test_every_public_name_resolves_and_is_cached(self):
        for name in syzkit.__all__:
            value = getattr(syzkit, name)
            assert vars(syzkit)[name] is value

    def test_every_class_and_function_lives_in_its_home(self):
        for name in syzkit.__all__:
            value = getattr(syzkit, name)
            if type(value) in (type, types.FunctionType):
                assert value.__module__ == "syzkit." + syzkit._HOMES[name], name

    def test_star_import_and_dir(self):
        scope = {}
        exec("from syzkit import *", scope)
        assert set(syzkit.__all__) <= scope.keys()
        assert set(syzkit.__all__) | {"cli", "gw", "svg", "lattice", "mirror"} <= set(dir(syzkit))

    def test_submodules_resolve(self):
        assert syzkit.svg.render_diagram is not None
        assert syzkit.cli.main is not None

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            syzkit.no_such_name
        with pytest.raises(ImportError):
            exec("from syzkit import no_such_name", {})


# The syzkit modules each command loads: the geometry, and the modules its
# handler imports on top of it.
GEOMETRY = {"syzkit", "syzkit.cli", "syzkit.errors", "syzkit.lattice", "syzkit.minkowski"}
GW = GEOMETRY | {"syzkit.gw"}
# mirror takes the chamber check from minkowski, so it loads no gw.
MIRROR = GEOMETRY | {"syzkit.algebra", "syzkit.mirror"}
COMMAND_MODULES = {
    "decompose": GEOMETRY,
    "mirror": MIRROR,
    "potential": MIRROR,
    "gw": GW,
    "transition": MIRROR | {"syzkit.transition"},
    "tropical": GEOMETRY | {"syzkit.svg", "syzkit.tropical"},
    "cayley": GEOMETRY,
}

# The commands that form no polynomial, so load no exact rationals.
NO_FRACTIONS = {"decompose", "tropical", "cayley", "gw"}


class TestStartupImports:
    @pytest.mark.parametrize("command", COMMAND_MODULES)
    def test_command_loads_only_its_modules(self, command, tmp_path):
        hexagon = {"dim": 2, "vertices": [list(v) for v in HEXAGON_CORNERS]}
        (tmp_path / "hexagon.json").write_text(json.dumps(hexagon))
        dec = MinkowskiDecomposition(hull(HEXAGON_CORNERS), (0, 0),
                                     (seg((1, 0)), seg((0, 1)), seg((1, 1))))
        (tmp_path / "dec.json").write_text(json.dumps(dec.to_json_dict()))
        args = {
            "decompose": [str(tmp_path / "hexagon.json")],
            "tropical": ["--svg", str(tmp_path / "out.svg")],
        }.get(command, [])
        if command != "decompose":
            args = ["--decomposition", str(tmp_path / "dec.json"), *args]
        # -S leaves out site hooks; -X importtime lists every module imported.
        src = Path(syzkit.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "syzkit", command, *args],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[1].strip()
                    for line in proc.stderr.splitlines() if line.startswith("import time:")}
        assert {m for m in imported if m.startswith("syzkit")} == COMMAND_MODULES[command]
        assert "dataclasses" not in imported and "typing" not in imported
        if command in NO_FRACTIONS:
            assert "fractions" not in imported and "decimal" not in imported


def test_traced_methods_exist():
    """``perfbench/tracer.py`` wraps each method its ``METHODS`` names, read
    from the class's ``__dict__``, so removing one breaks every traced run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.METHODS
    for layer, classes in tracer.METHODS.items():
        module = importlib.import_module(f"syzkit.{layer}")
        for cls_name, methods in classes.items():
            cls = vars(module)[cls_name]
            for method in methods:
                assert method in cls.__dict__, f"{layer}.{cls_name}.{method}"
