"""Checks of syzkit's outputs made with code that shares nothing with syzkit.

Every function here works on plain tuples, dicts and ints, or on the
documented JSON forms (``to_json_dict``), so a change to syzkit's internal
representation cannot make a check agree with a wrong answer.  Each check
raises ``CheckError`` on the first violation.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, gcd, prod


class CheckError(AssertionError):
    """An output of syzkit contradicts an independent computation."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# --------------------------------------------------------------- geometry

def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def hull(points):
    """Extreme points: increasing in rank one, counterclockwise from the
    lexicographic minimum in rank two (Andrew's monotone chain)."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 1:
        return pts
    if len(pts[0]) == 1:
        return [pts[0], pts[-1]]

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(
                (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                (p[0] - out[-1][0], p[1] - out[-1][1]),
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def minkowski(vertex_lists, dim):
    """Hull of the Minkowski sum of polytopes given by their vertex lists."""
    acc = [(0,) * dim]
    for verts in vertex_lists:
        acc = hull(tuple(a + b for a, b in zip(p, q)) for p in acc for q in verts)
    return acc


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v), g


def edge_profile(vertices):
    """Primitive edge direction -> lattice length, walking the boundary
    counterclockwise; a segment is walked out and back."""
    if len(vertices) <= 1:
        return Counter()
    if len(vertices) == 2:
        d, n = _primitive(tuple(b - a for a, b in zip(*vertices)))
        return Counter({d: n, tuple(-x for x in d): n})
    out = Counter()
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        d, n = _primitive(tuple(y - x for x, y in zip(a, b)))
        out[d] += n
    return out


def lattice_points(vertices):
    """All lattice points of the closed polytope, in no particular order."""
    if len(vertices[0]) == 1:
        return [(x,) for x in range(vertices[0][0], vertices[-1][0] + 1)]
    if len(vertices) <= 2:
        a, b = vertices[0], vertices[-1]
        step, n = _primitive((b[0] - a[0], b[1] - a[1])) if a != b else ((0, 0), 0)
        return [(a[0] + t * step[0], a[1] + t * step[1]) for t in range(n + 1)]
    edges = list(zip(vertices, vertices[1:] + vertices[:1]))
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    return [
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if all(_cross((b[0] - a[0], b[1] - a[1]), (x - a[0], y - a[1])) >= 0 for a, b in edges)
    ]


def is_unimodular(generators):
    if len(generators) == 1:
        return _primitive(generators[0])[1] == 1
    return len(generators) == 2 and abs(_cross(*generators)) == 1


def simplex_vertices(generators):
    return [(0,) * len(generators[0])] + [tuple(g) for g in generators]


def summand_key(generators):
    """Translation-free identity of a simplex: its vertex set rooted at the
    lexicographic minimum."""
    verts = sorted(simplex_vertices(generators))
    root = verts[0]
    return tuple(tuple(x - r for x, r in zip(v, root)) for v in verts[1:])


# ------------------------------------------------- independent enumerators

def decompose_by_triangles(vertices):
    """All decompositions into unimodular simplices, as sorted tuples of
    summand keys, by a search over triangle multiplicities.

    In the plane a multiset of summands sums to the polygon exactly when
    their edge profiles add up to the polygon's.  Unimodular triangles have
    three primitive edges; once their multiplicities are fixed, the leftover
    edge budget must be antipodally symmetric and fixes every segment.
    """
    dim = len(vertices[0])
    profile = edge_profile(vertices)
    if not profile:
        return [()]
    if dim == 1 or len(vertices) == 2:
        (d, n), = [(d, n) for d, n in profile.items() if d > tuple(-x for x in d)]
        return [tuple(sorted([summand_key([d])] * n))]
    dirs = sorted(profile)
    triangles = sorted({
        frozenset((a, b, (-a[0] - b[0], -a[1] - b[1])))
        for a in dirs for b in dirs
        if _cross(a, b) == 1 and (-a[0] - b[0], -a[1] - b[1]) in profile
    }, key=sorted)
    triangles = [sorted(t) for t in triangles]
    budget = dict(profile)
    found = []
    chosen = []

    def close():
        segments = []
        for d in dirs:
            back = (-d[0], -d[1])
            if back not in budget:
                if budget[d]:
                    return
            elif budget[d] != budget[back]:
                return
            elif d > back:
                segments += [summand_key([d])] * budget[d]
        found.append(tuple(sorted(chosen + segments)))

    def place(i):
        if i == len(triangles):
            close()
            return
        edges = triangles[i]
        a = edges[0]
        b = next(e for e in edges if _cross(a, e) == 1)
        key = summand_key([a, (a[0] + b[0], a[1] + b[1])])
        top = min(budget[e] for e in edges)
        for t in range(top + 1):
            if t:
                for e in edges:
                    budget[e] -= 1
                chosen.append(key)
            place(i + 1)
        for e in edges:
            budget[e] += top
        del chosen[len(chosen) - top:]

    place(0)
    return sorted(set(found))


def decompose_brute_force(vertices):
    """Exhaustive multiset search over simplices spanned by differences of
    lattice points, kept only when the exact Minkowski sum is the polytope.

    The same method as the oracle ``brute_decompositions`` in
    tests/test_minkowski.py, on this module's own geometry.  Only for
    polytopes with a handful of lattice points.
    """
    dim = len(vertices[0])
    root = hull(vertices)[0]
    base = hull(tuple(x - r for x, r in zip(v, root)) for v in vertices)
    pts = lattice_points(base)
    diffs = {tuple(a - b for a, b in zip(p, q)) for p, q in permutations(pts, 2)}
    candidates = {summand_key([u]) for u in diffs if is_unimodular([u])}
    if dim == 2:
        candidates |= {
            summand_key([u, v]) for u, v in combinations(sorted(diffs), 2)
            if abs(_cross(u, v)) == 1
        }
    candidates = sorted(candidates)
    perimeter = sum(edge_profile(base).values())
    found = []
    for size in range(perimeter // 2 + 1):
        for combo in combinations_with_replacement(candidates, size):
            if sum(len(s) + 1 for s in combo) != perimeter:
                continue
            if minkowski((simplex_vertices(s) for s in combo), dim) == base:
                found.append(tuple(sorted(combo)))
    return sorted(set(found))


# ------------------------------------------------------------- polynomials

def integer_terms(poly_json):
    """exponent -> int from a parameter-free polynomial in syzkit's JSON form;
    any non-integral or parameterised coefficient is a violation."""
    out = {}
    for entry in poly_json["terms"]:
        coeff = entry["coeff"]
        require(isinstance(coeff, dict), f"split coefficient at {entry['exp']}")
        require(coeff["den"] == 1 and not any(coeff.get("param_exp", ())),
                f"coefficient at {entry['exp']} is not an integer: {coeff}")
        require(coeff["num"] != 0, f"stored zero coefficient at {entry['exp']}")
        out[tuple(entry["exp"])] = coeff["num"]
    return out


def multiply(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def wall_factor(generators):
    terms = {(0,) * len(generators[0]): 1}
    for g in generators:
        terms[tuple(g)] = 1
    return terms


def shifted_value(terms, point):
    """(m, x^-m * f(x)) with m the coordinatewise minimum exponent, so that
    the value is an integer and f*g at x is checked as a product of values
    with shifts adding up."""
    dim = len(point)
    low = tuple(min(e[j] for e in terms) for j in range(dim))
    value = sum(
        c * prod(x ** (e - m) for x, e, m in zip(point, exp, low))
        for exp, c in terms.items()
    )
    return low, value


def product_value(factors, point):
    shift = (0,) * len(point)
    value = 1
    for f in factors:
        s, v = shifted_value(f, point)
        shift = tuple(a + b for a, b in zip(shift, s))
        value *= v
    return shift, value


# ------------------------------------------------------------------ checks

def check_decompositions(vertices, decompositions, expected_count, oracle=None):
    """``decompositions`` in syzkit's JSON form, for the polytope with these
    vertices.  ``oracle``, when given, is the exact set of summand multisets."""
    dim = len(vertices[0])
    target = hull(vertices)
    lexmin = target[0]
    pinned = hull(tuple(x - r for x, r in zip(v, lexmin)) for v in target)
    profile = edge_profile(pinned)
    seen = set()
    for dec in decompositions:
        require(tuple(dec["translation"]) == lexmin, f"translation {dec['translation']}")
        require(hull(map(tuple, dec["polytope"]["vertices"])) == pinned,
                "decomposition polytope differs from the pinned input")
        gens = [[tuple(g) for g in s["generators"]] for s in dec["summands"]]
        for g in gens:
            require(is_unimodular(g), f"summand {g} is not a unimodular simplex")
        require(minkowski((simplex_vertices(g) for g in gens), dim) == pinned,
                "summands do not sum to the polytope")
        edges = Counter()
        for g in gens:
            edges.update(edge_profile(hull(simplex_vertices(g))))
        require(edges == profile, "summand edges do not add up to the polytope's")
        key = tuple(sorted(summand_key(g) for g in gens))
        require(key not in seen, f"duplicate decomposition {key}")
        seen.add(key)
    require(len(decompositions) == expected_count,
            f"{len(decompositions)} decompositions, expected {expected_count}")
    if oracle is not None:
        require(seen == set(oracle), "decompositions differ from the oracle's")


def check_binomial(expanded, p):
    terms = integer_terms(expanded)
    require(terms == {(k,): comb(p + 1, k) for k in range(p + 2)},
            f"A_{p} coefficients are not binomial")


def check_mirror(decomposition, factored, expanded, table, points,
                 potential=None, chambers=()):
    """JSON forms of syz_mirror's factored, expanded and table, of
    disc_potential when given, and of chamber_uv as (chamber, u, v)."""
    gens = [[tuple(g) for g in s["generators"]] for s in decomposition["summands"]]
    factors = [wall_factor(g) for g in gens]
    g = integer_terms(expanded)
    require(sum(g.values()) == prod(1 + len(s) for s in gens), "g(1,...,1) != prod(1+k_i)")
    verts = hull(map(tuple, decomposition["polytope"]["vertices"]))
    require(hull(g) == verts, "Newton polytope of g is not the polytope")
    for v in verts:
        require(g.get(v) == 1, f"vertex coefficient at {v} is {g.get(v)}")
    require([integer_terms(f) for f in factored] == factors,
            "wall factors differ from 1 + sum z^u")
    require({tuple(e["point"]): e["n"] for e in table["entries"]} == g,
            "invariant table differs from the coefficients of g")
    if potential is not None:
        require(integer_terms(potential) == {(1,) + e: c for e, c in g.items()},
                "potential is not z0 * g")
    g_at = {x: shifted_value(g, x) for x in points}
    for x in points:
        require(g_at[x] == product_value(factors, x), f"g(x) != prod f_i(x) at {x}")
    for chamber, u, v in chambers:
        u, v = integer_terms(u), integer_terms(v)
        for x in points:
            x0 = (x[0] + 1,) + x
            su, vu = shifted_value(u, x0)
            sv, vv = shifted_value(v, x0)
            sl, vl = product_value(factors[:chamber + 1], x)
            sh, vh = product_value(factors[chamber + 1:], x)
            require((su, vu) == ((1,) + sl, vl), f"u of chamber {chamber} differs at {x}")
            require((sv, vv) == ((-1,) + sh, vh), f"v of chamber {chamber} differs at {x}")
            require((tuple(a + b for a, b in zip(su[1:], sv[1:])), vu * vv) == g_at[x],
                    f"u*v != g in chamber {chamber} at {x}")


def _fraction(text):
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def check_transition(decomposition, report, basis=None, specialization=None):
    """gamma * alpha^v * q_v = n_v at every lattice point, with q_v = 1 on the
    basis, n_v from this module's own product of the wall factors."""
    gens = [[tuple(g) for g in s["generators"]] for s in decomposition["summands"]]
    dim = len(decomposition["polytope"]["vertices"][0])
    g = {(0,) * dim: 1}
    for s in gens:
        g = multiply(g, wall_factor(s))
    require(report["verified"] is True, "transition not verified")
    chosen = [tuple(p) for p in report["basis"]]
    if basis is not None:
        require(chosen == [tuple(p) for p in basis], f"basis {chosen}")
    gamma = _fraction(report["character"]["gamma"])
    alpha = [_fraction(a) for a in report["character"]["alpha"]]
    q = {tuple(e["point"]): _fraction(e["value"]) for e in report["specialization"]}
    points = lattice_points(hull(map(tuple, decomposition["polytope"]["vertices"])))
    require(set(q) | set(chosen) == set(points) and not set(q) & set(chosen),
            "specialization does not cover exactly the non-basis lattice points")
    for v in points:
        weight = gamma * prod(a ** e for a, e in zip(alpha, v))
        require(weight * q.get(v, 1) == g.get(v, 0), f"gamma*alpha^v*q_v != n_v at {v}")
    if specialization is not None:
        require([q[v] for v in sorted(q)] == list(specialization),
                f"specialization {[str(q[v]) for v in sorted(q)]}")
