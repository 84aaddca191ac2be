"""Deterministic SVG drawings of polytopes, reflections, x-rays and
fixpoint images.

All geometric decisions happen upstream in exact arithmetic.  A drawing
reads int pairs only, all on the polygon's grid: the `xy` of the polygon,
of its T-polytope and of its reflection, the `xy` of the x-ray's strata
and the int pairs of `Analysis.fixpoints`.  It divides by the polygon's
scale only to format a display coordinate as a float with a fixed
precision; CPython rounds the true division of two ints correctly, so
identical input always yields identical bytes.  A display coordinate that
does not fit a float raises GeometryError.
"""

from __future__ import annotations

from .classify import analyze
from .errors import GeometryError
from .kaehler import build_xray
from .polygon import IntPair, Polygon

_SCALE = 40

OVERLAYS = ("reflection", "xray", "fixpoints")


def _fmt(c: int, scale: int) -> str:
    """The display coordinate of c grid units on the grid of `scale`."""
    try:
        return f"{c * _SCALE / scale:.2f}"
    except OverflowError:
        raise GeometryError("a display coordinate does not fit a float") from None


def render_svg(polygon: Polygon, overlays: tuple[str, ...] = ()) -> str:
    """SVG text for the polygon with the requested overlays
    (any of "reflection", "xray", "fixpoints")."""
    for name in overlays:
        if name not in OVERLAYS:
            raise ValueError(f"unknown overlay {name!r}")

    scale = polygon.scale
    frame = polygon.xy + polygon.t_polytope().xy if overlays else polygon.xy
    # The frame's bounds with a margin of one unit, `scale` grid units.
    xs, ys = zip(*frame)
    x0, x1, y0, y1 = min(xs) - scale, max(xs) + scale, min(ys) - scale, max(ys) + scale

    def at(q: IntPair) -> tuple[str, str]:
        # SVG user units, with the y axis flipped.
        return _fmt(q[0] - x0, scale), _fmt(y1 - q[1], scale)

    def line(a: IntPair, b: IntPair, style: str) -> str:
        (ax, ay), (bx, by) = at(a), at(b)
        return f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" {style}/>'

    def outline(xy: tuple[IntPair, ...], style: str) -> str:
        pts = " ".join(",".join(at(q)) for q in xy)
        tag = "polygon" if len(xy) >= 3 else "polyline"
        return f'<{tag} points="{pts}" {style}/>'

    width, height = _fmt(x1 - x0, scale), _fmt(y1 - y0, scale)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    # Dashed wall diagonal x = y, clipped to the frame.
    lo, hi = max(x0, y0), min(x1, y1)
    if lo < hi:
        parts.append(line((lo, lo), (hi, hi),
                          'stroke="gray" stroke-width="1" stroke-dasharray="6,4"'))

    if "reflection" in overlays:
        parts.append(outline(polygon.reflected().xy,
                             'fill="none" stroke="steelblue" stroke-width="1.5"'))

    parts.append(outline(polygon.xy, 'fill="none" stroke="black" stroke-width="2"'))

    # The x-ray and fixpoint overlays share one validation of the polygon.
    if "xray" in overlays or "fixpoints" in overlays:
        analysis = analyze(polygon)

    if "xray" in overlays:
        for (a, b), dimension in build_xray(analysis):
            width_attr = "3" if dimension == 4 else "1.5"
            parts.append(line(a, b, f'stroke="crimson" stroke-width="{width_attr}"'))

    if "fixpoints" in overlays:
        for q, mult in analysis.fixpoints:
            cx, cy = at(q)
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="black"/>')
            parts.append(
                f'<text x="{cx}" y="{cy}" dx="6" dy="-6" font-size="12">{mult}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
