"""The four workloads: a fixed corpus each, its operations, and its checks.

The corpus of a workload is the same for every seed, so the cost of a pass
does not depend on the seed.  The seed chooses what leaves the cost alone:
a translation of each input polytope of ``decompose`` (the search starts by
moving the polytope to the origin), the translation written into the CLI
input files, the random sums of unimodular simplices in ``mirror`` (a small
share of its pass, far below its median item), the order of the items in
each pass, and the points at which the checks evaluate polynomials.  A
symmetry of the lattice would not do: it reorders the search's candidate
summands, and the search's cost depends on that order.

Every operation calls syzkit through the package or module attribute at
call time, so the tracer sees it.
"""

import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import product
from math import prod
from pathlib import Path

import oracle
from oracle import require

# Z(m,n): the Minkowski sum of the segments [0, n*d_i] for the first m of D.
ZONOTOPE_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (-1, 2), (2, -1))
HEXAGON = ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1))
PAPER_BASIS = ((0, 1), (1, 1), (1, 2))
# Specializations of the hexagon's two decompositions in the paper's basis.
HEXAGON_SPECIALIZATIONS = (
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(1, 9), Fraction(1, 9), Fraction(1, 3)),
)
# Counts of the largest zonotopes; ``recount.py`` recomputes them.
KNOWN_COUNTS = {(4, 5): 21, (5, 3): 20, (6, 2): 16, (6, 3): 39}
# The polytopes of the brute-force oracle test in tests/test_minkowski.py.
SMALL_POLYTOPES = {
    "square": ((0, 0), (1, 0), (1, 1), (0, 1)),
    "rotated-square": ((0, 0), (1, 1), (2, 0), (1, -1)),
    "triangle": ((0, 0), (1, 0), (1, 1)),
    "doubled-square": ((0, 0), (2, 0), (2, 2), (0, 2)),
    "segment-2-1": ((0, 0), (2, 1)),
    "segment-2-0": ((0, 0), (2, 0)),
}
SEGMENT_LENGTHS = (1, 10, 20, 900)
# Edge directions of the hexagon, in order around it.
HEXAGON_EDGES = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
# Besides its dilations, decompose runs every hexagon with these edge
# directions and all six side lengths in this range: 45 distinct polygons of
# similar cost, among which the median item of a pass falls.
HEXAGON_SIDES = range(3, 6)
# Fails today with RecursionError: the search recurses once per summand.
FAILING_SEGMENT = 1200
MIRROR_AP = (1, 2, 4, 8, 16, 32, 64, 128)
# A chamber sweep multiplies every wall factor again per chamber, so its cost
# grows as walls^3; sweeps run on decompositions with at most this many walls.
SWEEP_WALLS = 17
MIRROR_RANDOM_SUMS = 5
TRANSITION_AP = (10, 50, 100)
CHECK_POINTS = 3


def zonotope(m, n):
    return oracle.minkowski([[(0, 0), (n * a, n * b)] for a, b in ZONOTOPE_DIRECTIONS[:m]], 2)


def dilate(vertices, k):
    return [tuple(k * x for x in v) for v in vertices]


def hexagons(sides):
    """Side lengths and vertices of every hexagon with edges HEXAGON_EDGES
    and all six side lengths in ``sides``."""
    out = []
    for l1, l2, l3, l4 in product(sides, repeat=4):
        l5 = l1 + l2 - l4
        l6 = l2 + l3 - l5
        if l5 in sides and l6 in sides:
            lengths, x, y, verts = (l1, l2, l3, l4, l5, l6), 0, 0, []
            for (dx, dy), n in zip(HEXAGON_EDGES, lengths):
                verts.append((x, y))
                x, y = x + n * dx, y + n * dy
            out.append((lengths, verts))
    return out


class Item:
    """One operation of a pass: ``run()`` is timed, ``check(output)`` is not."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def check_points(rng, dim):
    """Integer points with coordinates of absolute value 2..9."""
    return [tuple(rng.choice((-1, 1)) * rng.randint(2, 9) for _ in range(dim))
            for _ in range(CHECK_POINTS)]


# ------------------------------------------------------------- decompose

def _translation(rng, dim):
    shift = tuple(rng.randint(-40, 40) for _ in range(dim))
    return lambda v: tuple(x + t for x, t in zip(v, shift))


def decompose_items(sk, rng):
    shapes = [(f"Z({m},{n})", zonotope(m, n), count) for (m, n), count in KNOWN_COUNTS.items()]
    shapes += [(f"hexagon*{k}", dilate(HEXAGON, k), k + 1) for k in range(1, 7)]
    shapes += [("hexagon" + "".join(map(str, sides)), verts, None)
               for sides, verts in hexagons(HEXAGON_SIDES) if len(set(sides)) > 1]
    shapes += [(name, list(v), None) for name, v in SMALL_POLYTOPES.items()]
    shapes += [(f"segment[0,{n}]", [(0,), (n,)], 1) for n in SEGMENT_LENGTHS]
    shapes.append((f"segment[0,{FAILING_SEGMENT}]", [(0,), (FAILING_SEGMENT,)], 1))
    items = []
    for name, verts, count in shapes:
        move = _translation(rng, len(verts[0]))
        verts = oracle.hull(move(v) for v in verts)
        polytope = sk.hull(verts)
        small = name in SMALL_POLYTOPES or name == "hexagon*1"

        def check(out, verts=verts, count=count, small=small):
            expected = oracle.decompose_by_triangles(verts)
            if small:
                require(oracle.decompose_brute_force(verts) == expected,
                        "triangle search and brute force disagree")
            oracle.check_decompositions(
                verts, [d.to_json_dict() for d in out],
                len(expected) if count is None else count, expected)

        items.append(Item(name, lambda p=polytope: sk.enumerate_decompositions(p), check))
    return items


# ---------------------------------------------------------------- mirror

def ap_decomposition(sk, p):
    step = sk.UnimodularSimplex(1, ((1,),))
    return sk.MinkowskiDecomposition(sk.hull([(0,), (p + 1,)]), (0,), (step,) * (p + 1))


def decompositions_of(sk, verts):
    """syzkit decompositions built from the oracle's summand lists, so no
    search runs.  The polytope is pinned at its lexicographic minimum."""
    root = oracle.hull(verts)[0]
    verts = [tuple(x - r for x, r in zip(v, root)) for v in verts]
    polytope = sk.hull(verts)
    return [
        sk.MinkowskiDecomposition(polytope, (0,) * polytope.dim,
                                  tuple(sk.UnimodularSimplex(polytope.dim, s) for s in summands))
        for summands in oracle.decompose_by_triangles(verts)
    ]


def random_sum(sk, rng):
    """A Minkowski sum of one to four random unimodular simplices with
    entries in [-2, 2], as in the acceptance suite's randomized criterion."""
    parts = []
    size = rng.randint(1, 4)
    while len(parts) < size:
        gens = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.choice((1, 2)))]
        if (0, 0) not in gens and len(set(gens)) == len(gens) and oracle.is_unimodular(gens):
            parts.append(oracle.summand_key(gens))
    verts = oracle.minkowski((oracle.simplex_vertices(s) for s in parts), 2)
    return sk.MinkowskiDecomposition(
        sk.hull(verts), (0, 0), tuple(sk.UnimodularSimplex(2, s) for s in parts))


def _mirror_op(sk, dec, sweep):
    def run():
        mirror = sk.syz_mirror(dec)
        potential = sk.disc_potential(dec)
        chambers = [(c, *sk.chamber_uv(dec, c)) for c in range(-1, dec.p + 1)] if sweep else []
        return mirror, potential, chambers
    return run


def mirror_items(sk, rng):
    decs = [(f"A_{p}", ap_decomposition(sk, p)) for p in MIRROR_AP]
    for m, n in ((4, 3), (5, 2)):
        decs += [(f"Z({m},{n})#{i}", d) for i, d in enumerate(decompositions_of(sk, zonotope(m, n)))]
    decs += [(f"hexagon#{i}", d) for i, d in enumerate(decompositions_of(sk, list(HEXAGON)))]
    decs += [(f"random#{i}", random_sum(sk, rng)) for i in range(MIRROR_RANDOM_SUMS)]
    items = []
    for name, dec in decs:
        points = check_points(rng, dec.polytope.dim)

        def check(out, dec=dec, name=name, points=points):
            mirror, potential, chambers = out
            if name.startswith("A_"):
                oracle.check_binomial(mirror.expanded.to_json_dict(), dec.p)
            oracle.check_mirror(
                dec.to_json_dict(), [f.to_json_dict() for f in mirror.factored],
                mirror.expanded.to_json_dict(), mirror.table.to_json_dict(), points,
                potential.to_json_dict(),
                [(c, u.to_json_dict(), v.to_json_dict()) for c, u, v in chambers])

        items.append(Item(name, _mirror_op(sk, dec, dec.p + 1 <= SWEEP_WALLS), check))
    return items


# ------------------------------------------------------------ transition

def transition_items(sk, rng):
    items = []
    for dec, spec in zip(decompositions_of(sk, list(HEXAGON)), HEXAGON_SPECIALIZATIONS):
        def check(out, dec=dec, spec=spec):
            oracle.check_transition(dec.to_json_dict(), out.to_json_dict(), PAPER_BASIS, spec)
        items.append(Item(f"hexagon#{len(items)}/paper-basis",
                          lambda d=dec: sk.match_transition(d, PAPER_BASIS), check))
    decs = [(f"Z({m},{n})#{i}", d) for m, n in ((4, 3), (5, 2))
            for i, d in enumerate(decompositions_of(sk, zonotope(m, n)))]
    decs += [(f"A_{p}", ap_decomposition(sk, p)) for p in TRANSITION_AP]
    for name, dec in decs:
        def check(out, dec=dec):
            oracle.check_transition(dec.to_json_dict(), out.to_json_dict())
        items.append(Item(name, lambda d=dec: sk.match_transition(d), check))
    return items


# -------------------------------------------------------------------- cli

def _shifted(spec, shift):
    """A decomposition file whose polytope is moved by ``shift``; syzkit pins
    it back and records the shift as the translation."""
    out = json.loads(json.dumps(spec))
    out["polytope"]["vertices"] = [[x + s for x, s in zip(v, shift)]
                                   for v in spec["polytope"]["vertices"]]
    return out


def _gw_classes(ks, chamber):
    """D0 classes with invariant 1: each wall at or below the chamber
    touched at most once, every other wall untouched."""
    options = []
    for i, k in enumerate(ks):
        rows = [[0] * k]
        if i <= chamber:
            rows += [[int(j == t) for j in range(k)] for t in range(k)]
        options.append(rows)
    return sorted(json.dumps(list(c)) for c in product(*options))


def _normals(vertices, inner):
    out = set()
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        n, _ = oracle._primitive((b[1] - a[1], a[0] - b[0]))
        out.add(tuple(-x for x in n) if inner else n)
    return out


def cli_session(sk, rng, work):
    """Write the input files and return the commands with their checks."""
    hexagon_segments, hexagon_triangles = (d.to_json_dict() for d in decompositions_of(sk, list(HEXAGON)))
    a200 = ap_decomposition(sk, 200).to_json_dict()
    shift2 = (rng.randint(-40, 40), rng.randint(-40, 40))
    files = {
        "hexagon.json": {"dim": 2, "vertices": [[x + s for x, s in zip(v, shift2)] for v in HEXAGON]},
        "a200.json": _shifted(a200, (rng.randint(-40, 40),)),
        "hex_seg.json": _shifted(hexagon_segments, shift2),
        "hex_tri.json": _shifted(hexagon_triangles, shift2),
    }
    work.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (work / name).write_text(json.dumps(data), encoding="utf-8")
    svg = work / "diagram.svg"
    points = check_points(rng, 2)

    def own_g(spec):
        g = {(0,) * len(spec["polytope"]["vertices"][0]): 1}
        for s in spec["summands"]:
            g = oracle.multiply(g, oracle.wall_factor([tuple(x) for x in s["generators"]]))
        return g

    def check_decompose(out):
        verts = oracle.hull(tuple(v) for v in files["hexagon.json"]["vertices"])
        oracle.check_decompositions(verts, out, 2, oracle.decompose_by_triangles(verts))

    def check_mirror(out):
        oracle.check_binomial(out["expanded"], 200)
        oracle.check_mirror(a200, out["factored"], out["expanded"], out["gw_table"],
                            [(x[0],) for x in points])

    def check_potential(out):
        g = own_g(hexagon_triangles)
        require(oracle.integer_terms(out) == {(1,) + e: c for e, c in g.items()},
                "potential is not z0 * g")

    def check_gw(out):
        ks = [len(s["generators"]) for s in hexagon_segments["summands"]]
        require(out["count"] == prod(1 + k for i, k in enumerate(ks) if i <= 1), "gw count")
        require(sorted(json.dumps(c["multiplicities"]) for c in out["classes"]) == _gw_classes(ks, 1),
                "gw classes")
        require(all(c["sector"] == "D0" for c in out["classes"]), "gw sector")

    def check_transition(out):
        oracle.check_transition(hexagon_segments, out, PAPER_BASIS, HEXAGON_SPECIALIZATIONS[0])

    def check_tropical(out):
        verts = oracle.hull(tuple(v) for v in hexagon_triangles["polytope"]["vertices"])
        require(out["dual_fan_check"] is True, "dual-fan check failed")
        require({tuple(r) for r in out["polytope_rays"]} == _normals(verts, inner=False),
                "polytope rays are not the outer edge normals")
        require({tuple(r) for r in out["union_rays"]} == _normals(verts, inner=True),
                "wall rays do not recover the inner normal fan")

    def check_cayley(out):
        gens = []
        summands = hexagon_segments["summands"]
        for i, s in enumerate(summands):
            tag = tuple(int(j == i) for j in range(len(summands)))
            gens += [list(w + tag) for w in sorted(oracle.simplex_vertices(
                [tuple(g) for g in s["generators"]]))]
        require(out["generators"] == gens, "Cayley cone generators")

    path = lambda name: str(work / name)  # noqa: E731
    return [
        ("decompose", ["decompose", path("hexagon.json")], check_decompose),
        ("mirror", ["mirror", "--decomposition", path("a200.json"), "--format", "json"], check_mirror),
        ("potential", ["potential", "--decomposition", path("hex_tri.json")], check_potential),
        ("gw", ["gw", "--decomposition", path("hex_seg.json"), "--chamber", "1", "--sector", "D0"],
         check_gw),
        ("transition", ["transition", "--decomposition", path("hex_seg.json"),
                        "--basis", "(0,1),(1,1),(1,2)"], check_transition),
        ("tropical", ["tropical", "--decomposition", path("hex_tri.json"), "--svg", str(svg)],
         check_tropical),
        ("cayley", ["cayley", "--decomposition", path("hex_seg.json")], check_cayley),
    ], svg


def run_in_process(sk, argv):
    """syzkit.cli.main(argv) with stdout and stderr captured."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = sk.cli.main(argv)
    return code, out.getvalue().encode("utf-8")


def run_subprocess(argv, env):
    done = subprocess.run([sys.executable, "-m", "syzkit", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    return done.returncode, done.stdout


def cli_items(sk, rng, work, env, in_process):
    """Items for the CLI session.  Each output is (exit code, stdout bytes,
    svg bytes or None); the first pass's bytes are checked and every later
    pass must repeat them exactly."""
    commands, svg = cli_session(sk, rng, work)
    items = []
    for name, argv, check_json in commands:
        def run(argv=argv, name=name):
            code, out = run_in_process(sk, argv) if in_process else run_subprocess(argv, env)
            return code, out, svg.read_bytes() if name == "tropical" else None

        def check(out, argv=argv, check_json=check_json, name=name):
            code, stdout, image = out
            require(code == 0, f"exit code {code}")
            ref_code, ref_out = run_in_process(sk, argv)
            require((ref_code, ref_out) == (code, stdout),
                    "stdout differs from the in-process cli.main run")
            check_json(json.loads(stdout))
            if name == "tropical":
                decomposition = sk.decomposition_from_json_dict(
                    json.loads(Path(argv[2]).read_text(encoding="utf-8")))
                union = sorted({tuple(r) for w in json.loads(stdout)["walls"] for r in w["rays"]})
                require(image == sk.svg.render_diagram(decomposition.polytope, union).encode("utf-8"),
                        "svg file differs from render_diagram")

        items.append(Item(name, run, check))
    return items


def build(name, sk, seed, work, env, in_process):
    rng = random.Random(f"{name}:{seed}")
    if name == "decompose":
        return decompose_items(sk, rng)
    if name == "mirror":
        return mirror_items(sk, rng)
    if name == "transition":
        return transition_items(sk, rng)
    return cli_items(sk, rng, work, env, in_process)

