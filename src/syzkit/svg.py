"""Minimal deterministic SVG rendering of a polytope with a set of rays.

Write-only output: the y axis is flipped to the usual mathematical
orientation and the viewBox is computed from the content bounds plus a
one-lattice-unit margin.  Every coordinate is an integer count of
thousandths, so no floating point enters this module.
"""

from math import isqrt

# Cap on the view box extent: under the largest double, so an SVG viewer can
# read every coordinate.
MAX_REACH = 10**308


def _fmt(q: int) -> str:
    """``q`` thousandths as a decimal with no trailing zeros."""
    whole, frac = divmod(abs(q), 1000)
    return f"{'-' * (q < 0)}{whole}.{frac:03d}".rstrip("0").rstrip(".")


def _tip(a: int, n: int, scale: int) -> int:
    """``a * scale / sqrt(n)`` in thousandths, rounded to the nearest; it is
    never exactly halfway."""
    reach = (isqrt(4 * (a * scale * 1000) ** 2 // n) + 1) // 2
    return reach if a >= 0 else -reach


def render_diagram(polytope, rays, scale: int = 40) -> str:
    """SVG document: the polytope on an integer grid (``scale`` px per lattice
    unit) and each ray as a unit-length segment from the origin.  A scale
    below 1, or one whose view box would pass MAX_REACH, raises ValueError."""
    reach = 2 * (max(abs(x) for v in polytope.vertices for x in v) + 2) * scale
    if scale < 1 or reach > MAX_REACH:
        raise ValueError("the scale must be at least 1 and keep the view box in the float range")
    unit = scale * 1000
    pts = [(v[0] * unit, -v[1] * unit) for v in polytope.vertices]
    tips = []
    for a, b in sorted(tuple(v) for v in rays):
        n = a * a + b * b
        tips.append((_tip(a, n, scale), _tip(-b, n, scale)))
    xs = [p[0] for p in pts] + [p[0] for p in tips] + [0]
    ys = [p[1] for p in pts] + [p[1] for p in tips] + [0]
    min_x, max_x = min(xs) - unit, max(xs) + unit
    min_y, max_y = min(ys) - unit, max(ys) + unit
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
