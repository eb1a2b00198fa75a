"""Minimal deterministic SVG rendering of a polytope with a set of rays.

Write-only output: the y axis is flipped to the usual mathematical
orientation and the viewBox is computed from the content bounds plus a
one-lattice-unit margin.
"""

import sys
from math import sqrt


def _fmt(x: float) -> str:
    text = f"{x:.3f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text


def render_diagram(polytope, rays, scale: int = 40) -> str:
    """SVG document: the polytope on an integer grid (``scale`` px per lattice
    unit) and each ray as a unit-length segment from the origin.  A scale
    below 1, or one whose view box would pass the float range, raises
    ValueError."""
    reach = 2 * (max(abs(x) for v in polytope.vertices for x in v) + 2) * scale
    if scale < 1 or reach > sys.float_info.max:
        raise ValueError("the scale must be at least 1 and keep the view box in the float range")
    pts = [(v[0] * scale, -v[1] * scale) for v in polytope.vertices]
    tips = []
    for r in sorted(tuple(v) for v in rays):
        norm = sqrt(r[0] * r[0] + r[1] * r[1])
        tips.append((r[0] / norm * scale, -r[1] / norm * scale))
    xs = [p[0] for p in pts] + [p[0] for p in tips] + [0.0]
    ys = [p[1] for p in pts] + [p[1] for p in tips] + [0.0]
    margin = scale
    min_x, max_x = min(xs) - margin, max(xs) + margin
    min_y, max_y = min(ys) - margin, max(ys) + margin
    view = f"{_fmt(min_x)} {_fmt(min_y)} {_fmt(max_x - min_x)} {_fmt(max_y - min_y)}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
        '  <g fill="none" stroke-linecap="round">',
    ]
    if len(pts) >= 3:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        lines.append(
            f'    <polygon points="{coords}" stroke="#1f6feb" stroke-width="2"/>'
        )
    elif len(pts) == 2:
        (x1, y1), (x2, y2) = pts
        lines.append(
            f'    <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            ' stroke="#1f6feb" stroke-width="2"/>'
        )
    else:
        lines.append(
            f'    <circle cx="{_fmt(pts[0][0])}" cy="{_fmt(pts[0][1])}" r="3"'
            ' fill="#1f6feb"/>'
        )
    for x, y in tips:
        lines.append(
            f'    <line x1="0" y1="0" x2="{_fmt(x)}" y2="{_fmt(y)}"'
            ' stroke="#d29922" stroke-width="2"/>'
        )
    lines.append('    <circle cx="0" cy="0" r="2.5" fill="#d29922"/>')
    lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
