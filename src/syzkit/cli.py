"""Command-line front end.

JSON reports go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 on domain errors (with a machine-readable {"error": ..., "detail": ...}
object on stdout), 2 on parse or flag errors.
"""

import argparse
import json
import os
import re
import sys

from .errors import SyzkitError
from .lattice import normal_fan_rays, polytope_from_json_dict
from .minkowski import (
    DEFAULT_SEARCH_BUDGET,
    cayley_cone,
    decomposition_from_json_dict,
    enumerate_decompositions,
)
from .mirror import (
    SECTOR_D0,
    DiscClass,
    disc_potential,
    enumerate_gw_classes,
    gw_invariant,
    syz_mirror,
)
from .svg import render_diagram
from .transition import match_transition
from .tropical import dual_fan_check, tropical_rays, wall_chambers


class _InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc


def _parse(kind, parser, data):
    try:
        return parser(data)
    except SyzkitError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"malformed {kind}: {exc}") from exc


def _load_polytope(path):
    return _parse("polytope file", polytope_from_json_dict, _load_json(path))


def _load_decomposition(path):
    return _parse("decomposition file", decomposition_from_json_dict, _load_json(path))


def _resolve_budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("SYZKIT_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _InputError(f"SYZKIT_BUDGET is not an integer: {env!r}") from exc
    return DEFAULT_SEARCH_BUDGET


_POINT_GROUP = re.compile(r"\(([^()]*)\)")


def _parse_basis(text: str):
    points = []
    for group in _POINT_GROUP.findall(text):
        try:
            points.append(tuple(int(x.strip()) for x in group.split(",")))
        except ValueError as exc:
            raise _InputError(f"cannot parse basis point ({group})") from exc
    if not points:
        raise _InputError(f"no points found in basis {text!r}")
    return points


def _cmd_decompose(args):
    polytope = _load_polytope(args.polytope)
    budget = _resolve_budget(args)
    return [d.to_json_dict() for d in enumerate_decompositions(polytope, budget)]


def _cmd_mirror(args):
    decomposition = _load_decomposition(args.decomposition)
    mirror = syz_mirror(decomposition)
    if args.format == "expanded":
        return mirror.expanded.to_json_dict()
    if args.format == "factored":
        return [f.to_json_dict() for f in mirror.factored]
    return {
        "factored": [f.to_json_dict() for f in mirror.factored],
        "expanded": mirror.expanded.to_json_dict(),
        "gw_table": mirror.table.to_json_dict(),
    }


def _cmd_potential(args):
    decomposition = _load_decomposition(args.decomposition)
    return disc_potential(decomposition).to_json_dict()


def _cmd_gw(args):
    decomposition = _load_decomposition(args.decomposition)
    chamber = args.chamber if args.chamber is not None else decomposition.p
    if args.disc_class is not None:
        beta = _parse("disc class file", DiscClass.from_json_dict, _load_json(args.disc_class))
        if args.sector is not None and args.sector != beta.sector:
            raise _InputError(
                f"--sector {args.sector} conflicts with the class file sector {beta.sector}"
            )
        return {
            "chamber": chamber,
            "class": beta.to_json_dict(),
            "invariant": gw_invariant(decomposition, chamber, beta),
        }
    sector = args.sector if args.sector is not None else SECTOR_D0
    classes = enumerate_gw_classes(decomposition, chamber, sector, _resolve_budget(args))
    return {
        "chamber": chamber,
        "sector": sector,
        "count": len(classes),
        "classes": [c.to_json_dict() for c in classes],
    }


def _cmd_transition(args):
    decomposition = _load_decomposition(args.decomposition)
    basis = _parse_basis(args.basis) if args.basis is not None else None
    return match_transition(decomposition, basis).to_json_dict()


def _cmd_tropical(args):
    decomposition = _load_decomposition(args.decomposition)
    walls = []
    union = frozenset()
    for s in decomposition.summands:
        rays = tropical_rays(s)
        union = union | rays.rays
        walls.append(
            {
                "generators": [list(g) for g in s.generators],
                "rays": rays.to_json_dict()["rays"],
                "chambers": wall_chambers(s),
            }
        )
    report = {
        "walls": walls,
        "union_rays": [list(r) for r in sorted(union)],
        "polytope_rays": normal_fan_rays(decomposition.polytope).to_json_dict()["rays"],
        "dual_fan_check": dual_fan_check(decomposition),
    }
    if args.svg is not None:
        content = render_diagram(decomposition.polytope, sorted(union), scale=args.scale)
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:
            raise _InputError(f"cannot write {args.svg}: {exc}") from exc
        print(f"wrote {args.svg}", file=sys.stderr)
    return report


def _cmd_cayley(args):
    decomposition = _load_decomposition(args.decomposition)
    return cayley_cone(decomposition).to_json_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syzkit",
        description=(
            "Minkowski decompositions of lattice polytopes, their Laurent "
            "polynomial mirrors, and conifold-transition matching, all in "
            "exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="enumerate decompositions into unimodular simplices")
    p.add_argument("polytope", help="polytope JSON file")
    p.add_argument("--budget", type=int, default=None,
                   help="search node cap (default 10^7, or SYZKIT_BUDGET)")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("mirror", help="wall factors and the expanded mirror of a decomposition")
    p.add_argument("--decomposition", required=True, help="decomposition JSON file")
    p.add_argument("--format", choices=("json", "factored", "expanded"), default="json")
    p.set_defaults(handler=_cmd_mirror)

    p = sub.add_parser("potential", help="disc potential z0 * g of a decomposition")
    p.add_argument("--decomposition", required=True)
    p.set_defaults(handler=_cmd_potential)

    p = sub.add_parser("gw", help="open invariants for a chamber")
    p.add_argument("--decomposition", required=True)
    p.add_argument("--chamber", type=int, default=None,
                   help="fiber chamber in -1..p (default p)")
    p.add_argument("--sector", choices=("D0", "Dinf"), default=None)
    p.add_argument("--class", dest="disc_class", default=None,
                   help="disc class JSON file; report its single invariant")
    p.add_argument("--budget", type=int, default=None,
                   help="cap on the number of listed classes (default 10^7, or SYZKIT_BUDGET)")
    p.set_defaults(handler=_cmd_gw)

    p = sub.add_parser("transition", help="match the mirror against the toric family")
    p.add_argument("--decomposition", required=True)
    p.add_argument("--basis", default=None,
                   help='basis points, e.g. "(0,1),(1,1),(1,2)" (default: deterministic choice)')
    p.set_defaults(handler=_cmd_transition)

    p = sub.add_parser("tropical", help="wall tropicalizations and the dual-fan check")
    p.add_argument("--decomposition", required=True)
    p.add_argument("--svg", default=None, help="also write an SVG diagram to this path")
    p.add_argument("--scale", type=int, default=40, help="pixels per lattice unit")
    p.set_defaults(handler=_cmd_tropical)

    p = sub.add_parser("cayley", help="generators of the decomposition's Cayley cone")
    p.add_argument("--decomposition", required=True)
    p.set_defaults(handler=_cmd_cayley)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SyzkitError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}, indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(json.dumps({"error": "InvalidValue", "detail": str(exc)}, indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
