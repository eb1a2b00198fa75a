"""Each check of the benchmark accepts syzkit's real output and rejects a
corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py     # or
    python3 perfbench/test_checks.py
"""

import copy
import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import syzkit  # noqa: E402
import syzkit.cli  # noqa: E402,F401

import layers  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Passes  # noqa: E402

HEXAGON = list(workloads.HEXAGON)


def rejects(check, *args):
    try:
        check(*args)
    except oracle.CheckError:
        return True
    return False


def hexagon_decompositions():
    return [d.to_json_dict() for d in syzkit.enumerate_decompositions(syzkit.hull(HEXAGON))]


def test_decompositions():
    expected = oracle.decompose_by_triangles(HEXAGON)
    good = hexagon_decompositions()
    oracle.check_decompositions(HEXAGON, good, 2, expected)
    dropped = good[:1]
    duplicated = good + good[:1]
    wrong_sum = copy.deepcopy(good)
    wrong_sum[0]["summands"][0]["generators"] = [[2, 1]]
    not_unimodular = copy.deepcopy(good)
    not_unimodular[1]["summands"][0]["generators"] = [[2, 0], [0, 1]]
    moved = copy.deepcopy(good)
    moved[0]["translation"] = [1, 0]
    assert rejects(oracle.check_decompositions, HEXAGON, dropped, 2, expected)
    assert rejects(oracle.check_decompositions, HEXAGON, duplicated, 2)
    assert rejects(oracle.check_decompositions, HEXAGON, wrong_sum, 2, expected)
    assert rejects(oracle.check_decompositions, HEXAGON, not_unimodular, 2, expected)
    assert rejects(oracle.check_decompositions, HEXAGON, moved, 2, expected)
    assert rejects(oracle.check_decompositions, HEXAGON, good, 3, expected)
    assert rejects(oracle.check_decompositions, HEXAGON, good, 2, expected[:1] + [()])


def test_oracles_agree_on_small_polytopes():
    for verts in list(workloads.SMALL_POLYTOPES.values()) + [HEXAGON]:
        assert oracle.decompose_by_triangles(list(verts)) == oracle.decompose_brute_force(list(verts))


def _mirror_report(dec, chambers=True):
    mirror = syzkit.syz_mirror(dec)
    return {
        "factored": [f.to_json_dict() for f in mirror.factored],
        "expanded": mirror.expanded.to_json_dict(),
        "table": mirror.table.to_json_dict(),
        "potential": syzkit.disc_potential(dec).to_json_dict(),
        "chambers": [(c, *(p.to_json_dict() for p in syzkit.chamber_uv(dec, c)))
                     for c in range(-1, dec.p + 1)] if chambers else [],
    }


def _check_mirror(dec_json, report, points):
    oracle.check_mirror(dec_json, report["factored"], report["expanded"], report["table"],
                        points, report["potential"], report["chambers"])


def _bump(poly_json, index, delta):
    poly_json["terms"][index]["coeff"]["num"] += delta


def test_binomial():
    good = workloads.ap_decomposition(syzkit, 5)
    expanded = syzkit.syz_mirror(good).expanded.to_json_dict()
    oracle.check_binomial(expanded, 5)
    _bump(expanded, 2, 1)
    assert rejects(oracle.check_binomial, expanded, 5)


def test_mirror():
    dec = workloads.decompositions_of(syzkit, HEXAGON)[1]
    dec_json = dec.to_json_dict()
    points = [(2, -3), (5, 7), (-4, 9)]
    good = _mirror_report(dec)
    _check_mirror(dec_json, good, points)
    interior = next(i for i, t in enumerate(good["expanded"]["terms"]) if t["exp"] == [1, 1])

    def corrupt(edit):
        bad = copy.deepcopy(good)
        edit(bad)
        return rejects(_check_mirror, dec_json, bad, points)

    assert corrupt(lambda r: _bump(r["expanded"], interior, 1))   # g(1,...,1)
    assert corrupt(lambda r: _bump(r["expanded"], 0, 1))          # vertex coefficient
    assert corrupt(lambda r: r["factored"].reverse())             # wall factors
    assert corrupt(lambda r: r["table"]["entries"].pop())         # invariant table
    assert corrupt(lambda r: r["potential"]["terms"][0]["exp"].__setitem__(0, 2))

    def move_mass(r):  # same g(1,...,1) and vertices, different g(x)
        _bump(r["expanded"], interior, 1)
        terms = r["expanded"]["terms"]
        j = next(i for i, t in enumerate(terms) if t["exp"] == [1, 0])
        terms[j]["coeff"]["num"] -= 1
        r["table"] = {"entries": [{"point": t["exp"], "n": t["coeff"]["num"]}
                                  for t in terms if t["coeff"]["num"]]}
        r["expanded"]["terms"] = [t for t in terms if t["coeff"]["num"]]
    assert corrupt(move_mass)

    def swap_chamber(r):  # u of one chamber paired with v of another
        c, u, _ = r["chambers"][0]
        r["chambers"][0] = (c, u, r["chambers"][1][2])
    assert corrupt(swap_chamber)
    assert corrupt(lambda r: _bump(r["chambers"][1][1], 0, 1))


def test_transition():
    for dec, spec in zip(workloads.decompositions_of(syzkit, HEXAGON),
                         workloads.HEXAGON_SPECIALIZATIONS):
        dec_json = dec.to_json_dict()
        good = syzkit.match_transition(dec, workloads.PAPER_BASIS).to_json_dict()
        oracle.check_transition(dec_json, good, workloads.PAPER_BASIS, spec)

        def corrupt(edit, expected=spec):
            bad = copy.deepcopy(good)
            edit(bad)
            return rejects(oracle.check_transition, dec_json, bad, workloads.PAPER_BASIS, expected)

        assert corrupt(lambda r: r["character"].__setitem__("gamma", "5/1"))
        assert corrupt(lambda r: r["specialization"][1].__setitem__("value", "1/5"))
        assert corrupt(lambda r: r["specialization"].pop())
        assert corrupt(lambda r: r.__setitem__("verified", False))
        assert corrupt(lambda r: None, expected=tuple(Fraction(1, 2) for _ in spec))
        assert rejects(oracle.check_transition, dec_json, good, ((0, 0), (1, 0), (1, 1)))


def test_cli_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        commands, _ = workloads.cli_session(syzkit, random.Random(3), Path(tmp))
        for name, argv, check_json in commands:
            code, stdout = workloads.run_in_process(syzkit, argv)
            assert code == 0
            good = json.loads(stdout)
            check_json(good)
            bad = copy.deepcopy(good)
            if name == "decompose":
                bad.pop()
            elif name in ("mirror", "potential"):
                _bump(bad["expanded"] if name == "mirror" else bad, 1, 1)
            elif name == "gw":
                bad["classes"][0]["multiplicities"][0] = [1]
                bad["classes"][1]["multiplicities"][0] = [1]
            elif name == "transition":
                bad["specialization"][0]["value"] = "1/3"
            elif name == "tropical":
                bad["union_rays"].pop()
            elif name == "cayley":
                bad["generators"][0][0] = 1
            assert rejects(check_json, bad), name


def test_cli_item_rejects_changed_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        items = workloads.cli_items(syzkit, random.Random(4), Path(tmp), None, in_process=True)
        for item in items:
            code, stdout, image = item.run()
            item.check((code, stdout, image))
            assert rejects(item.check, (code, stdout.replace(b"1", b"2", 1), image)), item.name
            assert rejects(item.check, (1, stdout, image)), item.name
            if image is not None:
                assert rejects(item.check, (code, stdout, image + b" ")), item.name


def test_passes_reject_output_that_changes():
    state = {"n": 0}

    def drifting():
        state["n"] += 1
        return state["n"] > 1

    items = [workloads.Item("steady", lambda: 1, lambda out: None),
             workloads.Item("drifting", drifting, lambda out: None)]
    passes = Passes(items, random.Random(0))
    passes.one()
    assert not passes.errors
    passes.one()
    assert passes.errors == ["drifting: output differs between passes"]


def test_counts_must_repeat():
    same = {"algebra.mul.calls": 3, "algebra.mul.self_s": 0.1}
    slower = {"algebra.mul.calls": 3, "algebra.mul.self_s": 0.2}
    more = {"algebra.mul.calls": 4, "algebra.mul.self_s": 0.1}
    assert layers.count_mismatch([[same, slower], [same]]) is None
    assert "algebra.mul.calls" in layers.count_mismatch([[same], [more]])


def test_hook_time_is_not_charged_to_the_caller():
    spy = tracer.Tracer()
    inner = spy._wrap("lattice.inner", lambda: None, lambda t, args, result: time.sleep(0.05))
    outer = spy._wrap("mirror.outer", lambda: inner())
    spy.on = True
    outer()
    table = tracer.self_times(spy.spans)
    assert table["mirror.outer"][1] < 0.02
    assert table[tracer.HOOK][1] >= 0.05


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
